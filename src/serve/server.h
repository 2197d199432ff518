// ServeServer: the long-running decision daemon behind `phoebe serve`.
//
// Architecture (one process, one TCP listen socket on 127.0.0.1):
//
//   accept thread ──▶ one reader thread per connection
//                        │  DecodeFrame loop; malformed bytes → error frame
//                        │  + connection close (framing is unrecoverable);
//                        │  ping/reload/shutdown answered inline; decide
//                        │  requests pin the CURRENT bundle and enqueue
//                        ▼
//                bounded MPSC request queue (mutex + condvars; a full queue
//                blocks producers — requests are never dropped)
//                        │
//                        ▼
//   worker threads: pop up to `max_batch` requests in one go (coalescing;
//   `max_batch = 1` decides one request per wakeup), split the batch into
//   runs of consecutive requests that pinned the same bundle and ask for the
//   same DecideOptions, decide each run as a mini-day through one
//   DecisionEngine::DecideJobsInto call, and write each response frame,
//   serialized straight from its decision slot, under the connection's
//   write mutex.
//
// Hot reload: the served bundle lives in a std::atomic<shared_ptr<const
// PipelineBundle>>. Reload() loads + verifies the new file (checksum-gated
// like every bundle load) and swaps the pointer; every queued or in-flight
// request keeps deciding against the bundle it pinned at enqueue time, so a
// reload never drops a request and never mixes two bundles inside one
// response. The swap is logged with old → new checksums and counted in
// `serve.reloads`.
//
// Determinism: each worker decides through DecideJobsInto on its own
// DecideScratch (the fleet's day path), whose slot k is byte for byte what
// DecideJobInto returns for job k alone — a pure function of (bundle,
// options, job, stats), whatever else shares the batch. The queue only
// reorders *between* requests (each response carries its request id), and
// metrics are strictly passive — so socket answers are byte-identical to
// direct DecisionEngine calls for any worker count, batch size, and metrics
// setting, before/during/after a reload to the same artifact
// (serve_determinism_test pins this, mixed batches included;
// serve_concurrency_test runs the reload/decide races under TSan).
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/bundle.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace phoebe::serve {

/// \brief Knobs for the decision daemon.
struct ServeConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Decide worker threads draining the request queue.
  int num_workers = 1;
  /// Max requests one worker pops per wakeup (the coalesced batch size).
  int max_batch = 16;
  /// Bounded queue capacity; producers block (never drop) when full.
  int queue_capacity = 256;
  /// Bundle file reloaded on SIGHUP / an empty-payload reload frame.
  std::string bundle_path;
  /// Optional observability registry (borrowed; must outlive the server).
  /// Null = metrics off. Strictly passive.
  obs::MetricsRegistry* metrics = nullptr;

  Status Validate() const;
};

/// \brief The daemon. Construct with a loaded bundle, Start(), then either
/// WaitForShutdown() (CLI) or talk to it via ServeClient (tests/bench);
/// Stop() drains and joins everything.
class ServeServer {
 public:
  ServeServer(std::shared_ptr<const core::PipelineBundle> bundle, ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Bind + listen on 127.0.0.1:port and spawn the accept/worker threads.
  Status Start();

  /// Stop accepting, drain every queued request (responses still go out),
  /// join all threads, close all sockets. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (differs from config.port when it was 0).
  int port() const { return port_; }

  /// Checksum of the currently served bundle.
  uint32_t bundle_checksum() const { return CurrentBundle()->checksum(); }
  /// Successful reloads so far.
  int64_t reload_count() const { return reload_count_.load(std::memory_order_relaxed); }

  /// Load `path`, verify it, and atomically swap it in as the served
  /// bundle. In-flight requests keep their pinned bundle. Thread-safe
  /// (serialized against concurrent reloads); returns the new checksum.
  Result<uint32_t> Reload(const std::string& path);

  /// Block until a shutdown frame arrives or Stop() is called; returns true
  /// iff shutdown was requested within `timeout_seconds` (<= 0 waits
  /// forever).
  bool WaitForShutdown(double timeout_seconds = 0.0);
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

 private:
  /// One accepted connection: the fd plus a write mutex so reader-thread
  /// error replies and worker-thread decision replies interleave whole
  /// frames, never bytes.
  struct Connection {
    ~Connection();  ///< closes fd when the last holder (reader/queue) lets go
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
  };

  /// One queued decide request. `bundle` is pinned at enqueue time: this is
  /// the request's immutable view of the model state, whatever Reload()
  /// does afterwards.
  struct Request {
    std::shared_ptr<Connection> conn;
    uint64_t id = 0;
    core::DecideOptions options;
    workload::JobInstance job;
    std::shared_ptr<const core::PipelineBundle> bundle;
    std::chrono::steady_clock::time_point received;
  };

  std::shared_ptr<const core::PipelineBundle> CurrentBundle() const {
    return bundle_.load(std::memory_order_acquire);
  }

  /// Blocking bounded push; returns false when the queue is closed (server
  /// stopping) and the request was not enqueued.
  bool Enqueue(Request request);
  /// Pop up to `max_count` requests; blocks until at least one is available
  /// or the queue is closed and drained (then returns an empty batch).
  std::vector<Request> PopBatch(int max_count);

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  /// `canonical` is the reader's buffer for the decide-request canonical-form
  /// check, kept across requests.
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                   std::string* canonical);
  /// Serialize + send one frame; failures mark the connection closed (the
  /// client went away — its queued requests still compute, writes no-op).
  void WriteFrame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void WriteError(const std::shared_ptr<Connection>& conn, uint64_t id,
                  const Status& status);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  std::atomic<std::shared_ptr<const core::PipelineBundle>> bundle_;
  ServeConfig config_;
  Status config_status_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int64_t> reload_count_{0};
  std::mutex reload_mu_;  ///< serializes Reload() load+swap+log

  std::mutex queue_mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Request> queue_;
  bool queue_closed_ = false;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;

  /// Metric pointers resolved once at Start() (all null = metrics off).
  struct Metrics {
    obs::Counter* connections = nullptr;   ///< serve.connections
    obs::Counter* requests = nullptr;      ///< serve.requests
    obs::Counter* errors = nullptr;        ///< serve.errors
    obs::Counter* reloads = nullptr;       ///< serve.reloads
    obs::Gauge* queue_depth = nullptr;     ///< serve.queue.depth
    obs::Histogram* batch_size = nullptr;  ///< serve.batch.size
    obs::Histogram* request_seconds = nullptr;  ///< serve.request.seconds
  } metrics_;
};

}  // namespace phoebe::serve
