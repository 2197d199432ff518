// Serve-latency bench: closed-loop clients against an in-process
// `phoebe serve` daemon over real loopback sockets. For each client-thread
// count the bench reports QPS and the p50/p99/p999 request latency — the
// number a deployment needs before putting the daemon on a decide path.
//
// Two gates make this bench double as a regression check (the nightly CI
// job fails on a nonzero exit):
//   1. Every response must carry the serving bundle's checksum and parse
//      cleanly — zero failed or dropped requests at every thread count.
//   2. The final series re-runs the top thread count while another thread
//      hot-reloads the same bundle in a loop. Latency may move; correctness
//      may not: zero failures, zero responses from a "different" bundle.
// --metrics-out writes the server-side telemetry JSONL (queue depth,
// batch-size histogram, request latency) from the instrumented runs.
//
// Usage: bench_serve_latency [--requests N] [--max-batch B] [--metrics-out FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/json.h"
#include "core/bundle.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"

namespace phoebe::bench {
namespace {

/// Nearest-rank percentile over a sorted latency vector (seconds).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

struct SeriesResult {
  int threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  int64_t failures = 0;
  int64_t wrong_checksum = 0;
  int64_t reloads = 0;  // only nonzero for the reload series
};

/// One closed-loop series: `threads` clients, each issuing
/// `requests_per_thread` decides back to back on its own connection.
/// When `reload` is set, a reloader thread hot-swaps the same artifact in a
/// loop for the duration of the traffic.
SeriesResult RunSeries(serve::ServeServer& server,
                       const std::vector<workload::JobInstance>& jobs,
                       const std::string& bundle_path, int threads,
                       int requests_per_thread, bool reload) {
  SeriesResult result;
  result.threads = threads;
  const uint32_t expected_checksum = server.bundle_checksum();
  const int64_t reloads_before = server.reload_count();

  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> wrong_checksum{0};
  std::atomic<bool> traffic_done{false};

  std::thread reloader;
  if (reload) {
    reloader = std::thread([&] {
      while (!traffic_done.load(std::memory_order_acquire)) {
        auto checksum = server.Reload(bundle_path);
        if (!checksum.ok() || *checksum != expected_checksum) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      serve::ServeClient client;
      if (!client.Connect(server.port()).ok()) {
        failures.fetch_add(requests_per_thread);
        return;
      }
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(requests_per_thread));
      for (int r = 0; r < requests_per_thread; ++r) {
        const auto& job =
            jobs[static_cast<size_t>(t * 31 + r) % jobs.size()];
        auto q0 = std::chrono::steady_clock::now();
        auto response = client.Decide(job, {});
        auto q1 = std::chrono::steady_clock::now();
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (response->bundle_checksum != expected_checksum) {
          wrong_checksum.fetch_add(1);
        }
        lat.push_back(std::chrono::duration<double>(q1 - q0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  auto t1 = std::chrono::steady_clock::now();
  traffic_done.store(true, std::memory_order_release);
  if (reloader.joinable()) reloader.join();

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());

  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.qps = static_cast<double>(all.size()) / result.seconds;
  result.p50_ms = 1e3 * Percentile(all, 0.50);
  result.p99_ms = 1e3 * Percentile(all, 0.99);
  result.p999_ms = 1e3 * Percentile(all, 0.999);
  result.failures = failures.load();
  result.wrong_checksum = wrong_checksum.load();
  result.reloads = server.reload_count() - reloads_before;
  return result;
}

int Run(int argc, char** argv) {
  ArgParser args("bench_serve_latency",
                 "Closed-loop serve clients at 1/2/4 threads, then a hot-reload series.");
  args.AddInt("requests", 400, "decide requests per client thread");
  args.AddInt("max-batch", 16, "max requests a worker decides in one batch");
  args.AddString("metrics-out", "", "write the server-side telemetry JSONL here");
  if (Status st = args.Parse(argc, argv, 1); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.Help().c_str(), stdout);
    return 0;
  }
  const int requests_per_thread = args.GetInt("requests");
  const int max_batch = args.GetInt("max-batch");
  const std::string metrics_out = args.GetString("metrics-out");

  std::fprintf(stderr, "training pipeline...\n");
  BenchEnv env = MakeEnv(/*num_templates=*/30, /*train_days=*/3, /*test_days=*/1);
  const std::vector<workload::JobInstance>& jobs = env.TestDay(0);

  const std::string bundle_path =
      (std::filesystem::temp_directory_path() / "phoebe_bench_serve.bundle")
          .string();
  env.phoebe->SaveBundle(bundle_path).Check();
  auto bundle = core::PipelineBundle::LoadFromFile(bundle_path);
  bundle.status().Check();

  std::unique_ptr<obs::MetricsRegistry> registry;
  if (!metrics_out.empty()) registry = std::make_unique<obs::MetricsRegistry>();

  const std::vector<int> thread_counts = {1, 2, 4};
  std::vector<SeriesResult> series;
  for (int threads : thread_counts) {
    serve::ServeConfig cfg;
    cfg.num_workers = threads;
    cfg.max_batch = max_batch;
    cfg.bundle_path = bundle_path;
    cfg.metrics = registry.get();
    serve::ServeServer server(*bundle, cfg);
    server.Start().Check();
    series.push_back(
        RunSeries(server, jobs, bundle_path, threads, requests_per_thread,
                  /*reload=*/false));
    server.Stop();
    const SeriesResult& r = series.back();
    std::fprintf(stderr,
                 "threads %d: %.0f qps, p50 %.3f ms, p99 %.3f ms, p999 %.3f ms\n",
                 r.threads, r.qps, r.p50_ms, r.p99_ms, r.p999_ms);
  }

  // The reload gate: top thread count with a concurrent hot-reload loop.
  SeriesResult reload_series;
  {
    serve::ServeConfig cfg;
    cfg.num_workers = thread_counts.back();
    cfg.max_batch = max_batch;
    cfg.bundle_path = bundle_path;
    cfg.metrics = registry.get();
    serve::ServeServer server(*bundle, cfg);
    server.Start().Check();
    reload_series = RunSeries(server, jobs, bundle_path, thread_counts.back(),
                              requests_per_thread, /*reload=*/true);
    server.Stop();
    std::fprintf(stderr,
                 "reload series: %.0f qps through %lld reload(s), p99 %.3f ms\n",
                 reload_series.qps,
                 static_cast<long long>(reload_series.reloads),
                 reload_series.p99_ms);
  }
  std::filesystem::remove(bundle_path);

  if (registry) {
    std::ofstream tele(metrics_out, std::ios::binary);
    if (!tele) {
      std::fprintf(stderr, "cannot open '%s'\n", metrics_out.c_str());
      return 1;
    }
    tele << obs::TelemetryLineJson(registry->Snapshot(), "run", -1) << "\n";
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics_out.c_str());
  }

  JsonWriter json;
  json.BeginObject();
  json.KV("bench", "serve_latency");
  json.KV("requests_per_thread", requests_per_thread);
  json.KV("max_batch", max_batch);
  json.Key("series").BeginArray();
  for (const SeriesResult& r : series) {
    json.BeginObject();
    json.KV("threads", r.threads);
    json.KV("qps", r.qps);
    json.KV("p50_ms", r.p50_ms);
    json.KV("p99_ms", r.p99_ms);
    json.KV("p999_ms", r.p999_ms);
    json.KV("failures", r.failures);
    json.EndObject();
  }
  json.EndArray();
  json.Key("reload_series").BeginObject();
  json.KV("threads", reload_series.threads);
  json.KV("qps", reload_series.qps);
  json.KV("p50_ms", reload_series.p50_ms);
  json.KV("p99_ms", reload_series.p99_ms);
  json.KV("p999_ms", reload_series.p999_ms);
  json.KV("reloads", reload_series.reloads);
  json.KV("failures", reload_series.failures);
  json.KV("wrong_checksum", reload_series.wrong_checksum);
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  for (const SeriesResult& r : series) {
    if (r.failures != 0 || r.wrong_checksum != 0) {
      std::fprintf(stderr, "FAIL: %lld failure(s) at %d threads\n",
                   static_cast<long long>(r.failures + r.wrong_checksum),
                   r.threads);
      return 1;
    }
  }
  if (reload_series.failures != 0 || reload_series.wrong_checksum != 0) {
    std::fprintf(stderr,
                 "FAIL: reload series saw %lld failure(s), %lld mixed-bundle "
                 "response(s)\n",
                 static_cast<long long>(reload_series.failures),
                 static_cast<long long>(reload_series.wrong_checksum));
    return 1;
  }
  if (reload_series.reloads < 1) {
    std::fprintf(stderr, "FAIL: reload series completed no reloads\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
