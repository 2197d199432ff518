#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>

#include "common/strings.h"

namespace phoebe::serve {

namespace {

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

Status ServeConfig::Validate() const {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(StrFormat("port must be in [0, 65535], got %d", port));
  }
  if (num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1, got %d", num_workers));
  }
  if (max_batch < 1) {
    return Status::InvalidArgument(StrFormat("max_batch must be >= 1, got %d", max_batch));
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument(
        StrFormat("queue_capacity must be >= 1, got %d", queue_capacity));
  }
  return Status::OK();
}

ServeServer::Connection::~Connection() { CloseFd(fd); }

ServeServer::ServeServer(std::shared_ptr<const core::PipelineBundle> bundle,
                         ServeConfig config)
    : bundle_(std::move(bundle)), config_(std::move(config)) {
  PHOEBE_CHECK(CurrentBundle() != nullptr);
  config_status_ = config_.Validate();
}

ServeServer::~ServeServer() { Stop(); }

Status ServeServer::Start() {
  PHOEBE_RETURN_NOT_OK(config_status_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IoError(
        StrFormat("bind(127.0.0.1:%d): %s", config_.port, std::strerror(errno)));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status s = Status::IoError(StrFormat("listen(): %s", std::strerror(errno)));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status s = Status::IoError(StrFormat("getsockname(): %s", std::strerror(errno)));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry* m = config_.metrics;
    metrics_.connections = m->counter("serve.connections");
    metrics_.requests = m->counter("serve.requests");
    metrics_.errors = m->counter("serve.errors");
    metrics_.reloads = m->counter("serve.reloads");
    metrics_.queue_depth = m->gauge("serve.queue.depth");
    metrics_.batch_size = m->histogram(
        "serve.batch.size", obs::Histogram::ExponentialBounds(1.0, 2.0, 10));
    metrics_.request_seconds = m->histogram("serve.request.seconds");
  }

  stopping_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = false;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void ServeServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Close the listener: no new connections; the accept thread exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  CloseFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // 2. Half-close every live connection for reads: recv() in each reader
  // returns 0, readers finish enqueuing what they already framed and exit.
  // No request that reached the server is dropped.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
    readers.swap(readers_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }

  // 3. Close the queue: workers drain everything still queued (responses go
  // out over the still-write-open sockets), then exit.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();

  // 4. Drop connection refs; each fd closes when the last holder lets go.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      conn->closed.store(true, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    conns_.clear();
  }

  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
  }
  shutdown_cv_.notify_all();
}

Result<uint32_t> ServeServer::Reload(const std::string& path) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  PHOEBE_ASSIGN_OR_RETURN(std::shared_ptr<const core::PipelineBundle> next,
                          core::PipelineBundle::LoadFromFile(path, config_.metrics));
  std::shared_ptr<const core::PipelineBundle> prev = CurrentBundle();
  bundle_.store(next, std::memory_order_release);
  reload_count_.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.reloads);
  std::fprintf(stderr, "phoebe serve: reloaded bundle %s: checksum %08x -> %08x\n",
               path.c_str(), prev->checksum(), next->checksum());
  return next->checksum();
}

bool ServeServer::WaitForShutdown(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  auto done = [this] {
    return shutdown_requested_.load(std::memory_order_acquire) ||
           !running_.load(std::memory_order_acquire);
  };
  if (timeout_seconds <= 0.0) {
    shutdown_cv_.wait(lock, done);
  } else {
    shutdown_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds), done);
  }
  return shutdown_requested_.load(std::memory_order_acquire);
}

bool ServeServer::Enqueue(Request request) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_not_full_.wait(lock, [this] {
    return queue_closed_ || queue_.size() < static_cast<size_t>(config_.queue_capacity);
  });
  if (queue_closed_) return false;
  queue_.push_back(std::move(request));
  obs::Set(metrics_.queue_depth, static_cast<double>(queue_.size()));
  lock.unlock();
  queue_not_empty_.notify_one();
  return true;
}

std::vector<ServeServer::Request> ServeServer::PopBatch(int max_count) {
  std::vector<Request> batch;
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_not_empty_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
  while (!queue_.empty() && batch.size() < static_cast<size_t>(max_count)) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  obs::Set(metrics_.queue_depth, static_cast<double>(queue_.size()));
  lock.unlock();
  queue_not_full_.notify_all();
  return batch;
}

void ServeServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal accept error
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    obs::Increment(metrics_.connections);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      CloseFd(fd);
      return;
    }
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
}

void ServeServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  [this, &conn] {
    std::string pending;
    std::string canonical;  // ParseDecideRequest's re-serialization buffer
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // client closed, connection error, or Stop()'s SHUT_RD
      pending.append(buf, static_cast<size_t>(n));
      while (true) {
        Frame frame;
        size_t consumed = 0;
        Status error;
        FrameDecode d = DecodeFrame(pending, &frame, &consumed, &error);
        if (d == FrameDecode::kNeedMore) break;
        if (d == FrameDecode::kError) {
          // Framing is broken: the stream boundary is lost, so after one last
          // error reply the connection must close.
          obs::Increment(metrics_.errors);
          WriteError(conn, 0, error);
          CloseConnection(conn);
          return;
        }
        pending.erase(0, consumed);
        HandleFrame(conn, std::move(frame), &canonical);
      }
    }
  }();
  // Drop the registry's ref so the fd closes as soon as the last queued
  // request for this connection is answered (a long-running daemon must not
  // leak one fd per disconnected client). Stop() still finds live readers'
  // connections here for its SHUT_RD sweep.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == conn) {
      conns_.erase(conns_.begin() + static_cast<long>(i));
      break;
    }
  }
}

void ServeServer::HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                              std::string* canonical) {
  switch (frame.type) {
    case FrameType::kPing:
      WriteFrame(conn, Frame{FrameType::kOk, frame.id, "pong"});
      return;
    case FrameType::kShutdown: {
      WriteFrame(conn, Frame{FrameType::kOk, frame.id, "bye"});
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_.store(true, std::memory_order_release);
      }
      shutdown_cv_.notify_all();
      return;
    }
    case FrameType::kReload: {
      std::string path = config_.bundle_path;
      if (!frame.payload.empty()) {
        if (!StartsWith(frame.payload, "bundle ")) {
          obs::Increment(metrics_.errors);
          WriteError(conn, frame.id,
                     Status::InvalidArgument(
                         "reload payload must be empty or 'bundle <path>'"));
          return;
        }
        path = frame.payload.substr(std::strlen("bundle "));
        while (!path.empty() && path.back() == '\n') path.pop_back();
      }
      if (path.empty()) {
        obs::Increment(metrics_.errors);
        WriteError(conn, frame.id,
                   Status::InvalidArgument(
                       "no bundle path: server started without --bundle-path and "
                       "the reload frame named none"));
        return;
      }
      Result<uint32_t> checksum = Reload(path);
      if (!checksum.ok()) {
        obs::Increment(metrics_.errors);
        WriteError(conn, frame.id, checksum.status());
        return;
      }
      WriteFrame(conn, Frame{FrameType::kOk, frame.id,
                             StrFormat("reloaded %08x", *checksum)});
      return;
    }
    case FrameType::kDecide: {
      Request request;
      DecideRequest parsed;
      Status s = ParseDecideRequest(frame.payload, &parsed, canonical);
      if (!s.ok()) {
        // The frame itself was sound (length + CRC passed), so the stream is
        // still in sync: reply with the payload error and keep the
        // connection.
        obs::Increment(metrics_.errors);
        WriteError(conn, frame.id, s);
        return;
      }
      request.conn = conn;
      request.id = frame.id;
      request.options = parsed.options;
      request.job = std::move(parsed.job);
      request.bundle = CurrentBundle();  // pin: this request's model state
      request.received = std::chrono::steady_clock::now();
      if (!Enqueue(std::move(request))) {
        obs::Increment(metrics_.errors);
        WriteError(conn, frame.id, Status::FailedPrecondition("server stopping"));
      }
      return;
    }
    case FrameType::kDecision:
    case FrameType::kOk:
    case FrameType::kError:
      obs::Increment(metrics_.errors);
      WriteError(conn, frame.id,
                 Status::InvalidArgument(
                     StrFormat("unexpected response-type frame '%s' from client",
                               FrameTypeToken(frame.type))));
      return;
  }
}

void ServeServer::WorkerLoop() {
  // An engine is just a shared_ptr + resolved metric pointers, but rebuilding
  // it per request would hit the registry mutex; rebuild only when the batch
  // crosses a reload boundary (pinned bundle pointer changes).
  std::shared_ptr<const core::PipelineBundle> engine_bundle;
  std::optional<core::DecisionEngine> engine;
  // The fleet's day path at batch scale: one arena, one slot vector and one
  // job-pointer vector per worker, recycled across batches (and across
  // reloads — none of them holds bundle state). Slots only grow, so their
  // decisions' cut bitsets are reused in place.
  core::DecideScratch scratch;
  std::vector<core::JobDecision> slots;
  std::vector<const workload::JobInstance*> jobs;
  while (true) {
    std::vector<Request> batch = PopBatch(config_.max_batch);
    if (batch.empty()) return;  // queue closed and drained
    obs::Observe(metrics_.batch_size, static_cast<double>(batch.size()));
    // Each run of consecutive requests with one pinned bundle and one
    // DecideOptions is a mini-day: one DecideJobsInto call over its eligible
    // (>= 2-stage) jobs.
    for (size_t begin = 0, end = 0; begin < batch.size(); begin = end) {
      const Request& head = batch[begin];
      jobs.clear();
      for (end = begin; end < batch.size() && batch[end].bundle == head.bundle &&
                        batch[end].options == head.options;
           ++end) {
        if (batch[end].job.graph.num_stages() >= 2) jobs.push_back(&batch[end].job);
      }
      if (head.bundle != engine_bundle) {
        engine_bundle = head.bundle;
        engine.emplace(engine_bundle, config_.metrics);
      }
      if (slots.size() < jobs.size()) slots.resize(jobs.size());
      if (!jobs.empty()) {
        engine->DecideJobsInto(jobs, engine_bundle->stats(), head.options, &scratch,
                               std::span(slots).first(jobs.size()));
      }
      size_t slot = 0;
      for (size_t k = begin; k < end; ++k) {
        const Request& request = batch[k];
        const core::FleetDecision* decision = nullptr;  // ineligible: no decision
        if (request.job.graph.num_stages() >= 2) {
          const core::JobDecision& decided = slots[slot++];
          if (!decided.status.ok()) {
            obs::Increment(metrics_.errors);
            WriteError(request.conn, request.id, decided.status);
            continue;
          }
          decision = &decided.decision;
        }
        WriteFrame(request.conn,
                   Frame{FrameType::kDecision, request.id,
                         SerializeDecideResponse(engine_bundle->checksum(), decision)});
        obs::Increment(metrics_.requests);
        obs::Observe(metrics_.request_seconds,
                     std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                   request.received)
                         .count());
      }
    }
  }
}

void ServeServer::WriteFrame(const std::shared_ptr<Connection>& conn,
                             const Frame& frame) {
  const std::string wire = EncodeFrame(frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return;
  size_t off = 0;
  while (off < wire.size()) {
    ssize_t n = ::send(conn->fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // The client went away mid-response; nothing left to deliver here.
      conn->closed.store(true, std::memory_order_release);
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void ServeServer::WriteError(const std::shared_ptr<Connection>& conn, uint64_t id,
                             const Status& status) {
  WriteFrame(conn, Frame{FrameType::kError, id, status.ToString()});
}

void ServeServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::shutdown(conn->fd, SHUT_RDWR);
}

}  // namespace phoebe::serve
