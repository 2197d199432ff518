// Decision-throughput bench for the fleet hot path: one large recurring day
// (10k jobs by default) through DecisionArm::RunDay on a single thread, with
// the template cache off and on. Reports decisions/sec, stage-scorings/sec,
// and the cache hit rate as JSON on stdout (human-readable progress on
// stderr).
//
// A correctness gate makes this bench double as a regression check (the
// nightly CI job fails on a nonzero exit): at zero drift tolerance
// (quantize_bps = 0) the cached day must produce the uncached report byte
// for byte — exact-mode cache hits replay provably identical decisions.
// The timed cache-on run uses an approximate cache (--cache-bps, default
// 5000) since that is the configuration that shows real hit rates on noisy
// recurrences.
//
// A second gate covers the observability layer: the cache-off day re-runs
// with a MetricsRegistry attached (min-of-3 each way). Reports must stay
// byte-identical with telemetry on — always fatal — and when
// --gate-overhead-bps N is passed (the nightly CI does, with N=200 = 2%)
// the measured overhead must stay under N basis points of decide time.
// --metrics-out writes the instrumented run's telemetry JSONL artifact.
//
// Usage: bench_decide_throughput [--jobs N] [--num-cuts K]
//                                [--template-cache CAP] [--cache-bps B]
//                                [--metrics-out FILE] [--gate-overhead-bps N]
// Unknown or malformed flags exit 2; --help prints the flag list.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/fleet.h"
#include "obs/metrics.h"

namespace phoebe::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact comparison over everything the day decided (cache counters are
/// excluded — they differ across configurations by construction).
bool ReportsIdentical(const core::FleetDayReport& a, const core::FleetDayReport& b) {
  if (a.jobs_considered != b.jobs_considered || a.jobs_with_cut != b.jobs_with_cut ||
      a.jobs_admitted != b.jobs_admitted ||
      a.storage_used_bytes != b.storage_used_bytes ||
      a.total_temp_byte_seconds != b.total_temp_byte_seconds ||
      a.realized_saving_byte_seconds != b.realized_saving_byte_seconds ||
      a.knapsack_threshold != b.knapsack_threshold) {
    return false;
  }
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const core::FleetJobOutcome& x = a.outcomes[i];
    const core::FleetJobOutcome& y = b.outcomes[i];
    if (x.job_id != y.job_id || x.admitted != y.admitted ||
        x.global_bytes != y.global_bytes || x.predicted_value != y.predicted_value ||
        x.realized_value != y.realized_value ||
        x.cut.before_cut != y.cut.before_cut || x.cuts.size() != y.cuts.size()) {
      return false;
    }
    for (size_t c = 0; c < x.cuts.size(); ++c) {
      if (x.cuts[c].before_cut != y.cuts[c].before_cut) return false;
    }
  }
  return true;
}

struct ConfigRun {
  ConfigRun(const char* n, bool c) : name(n), cache(c) {}
  const char* name;
  bool cache;
  double seconds = 0.0;
  double hit_rate = 0.0;
  core::FleetDayReport report;
};

int Run(int argc, char** argv) {
  ArgParser args("bench_decide_throughput",
                 "Fleet-day decision throughput with the template cache off and on.");
  args.AddInt("jobs", 10000, "jobs in the benchmarked day");
  args.AddInt("num-cuts", 1, "checkpoint cuts per job");
  args.AddInt("template-cache", 65536, "template cache capacity for the cache-on run");
  args.AddInt("cache-bps", 5000, "cache drift tolerance (basis points) for the timed "
              "cache-on run");
  args.AddString("metrics-out", "", "write the instrumented run's telemetry JSONL here");
  args.AddInt("gate-overhead-bps", 0, "fail if metrics overhead exceeds this many basis "
              "points of decide time (0 = report only)");
  if (Status st = args.Parse(argc, argv, 1); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.Help().c_str(), stdout);
    return 0;
  }
  const int target_jobs = args.GetInt("jobs");
  const int num_cuts = args.GetInt("num-cuts");
  const int cache_capacity = args.GetInt("template-cache");
  const int cache_bps = args.GetInt("cache-bps");
  const std::string metrics_out = args.GetString("metrics-out");
  const int gate_overhead_bps = args.GetInt("gate-overhead-bps");

  std::fprintf(stderr, "training pipeline...\n");
  BenchEnv env = MakeEnv(/*num_templates=*/60, /*train_days=*/3, /*test_days=*/1);

  // One oversized recurring day: concatenate generated days beyond the stored
  // span until the target job count is reached (recurrences of the same 60
  // templates — the workload the cache is for). Stats stay fixed at the
  // test-day view, as in production.
  std::vector<workload::JobInstance> jobs = env.TestDay(0);
  for (int d = env.train_days + env.test_days;
       static_cast<int>(jobs.size()) < target_jobs; ++d) {
    auto extra = env.gen->GenerateDay(d);
    jobs.insert(jobs.end(), extra.begin(), extra.end());
  }
  if (static_cast<int>(jobs.size()) > target_jobs) {
    jobs.resize(static_cast<size_t>(target_jobs));
  }
  auto stats = env.StatsForTestDay(0);
  const core::DayContext ctx(0, jobs, stats);

  int64_t eligible = 0, eligible_stages = 0;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    ++eligible;
    eligible_stages += static_cast<int64_t>(job.graph.num_stages());
  }
  std::fprintf(stderr, "day assembled: %zu jobs (%lld eligible, %lld stages)\n",
               jobs.size(), static_cast<long long>(eligible),
               static_cast<long long>(eligible_stages));

  auto run_one = [&](bool cache, int bps, core::FleetDayReport* report,
                     double* hit_rate) -> double {
    core::FleetConfig cfg;
    cfg.num_cuts = num_cuts;
    cfg.num_threads = 1;
    cfg.template_cache.enabled = cache;
    cfg.template_cache.capacity = static_cast<size_t>(cache_capacity);
    cfg.template_cache.quantize_bps = bps;
    core::DecisionArm arm(&env.phoebe->engine(), cfg);
    auto t0 = std::chrono::steady_clock::now();
    auto r = arm.RunDay(ctx);
    auto t1 = std::chrono::steady_clock::now();
    r.status().Check();
    const int64_t lookups = r->cache_hits + r->cache_misses;
    if (hit_rate) {
      *hit_rate = lookups > 0 ? static_cast<double>(r->cache_hits) /
                                    static_cast<double>(lookups)
                              : 0.0;
    }
    *report = *std::move(r);
    return Seconds(t0, t1);
  };

  // Timed runs: cache off, then on with the approximate cache.
  std::vector<ConfigRun> runs = {{"cache-off", false}, {"cache-on", true}};
  for (ConfigRun& run : runs) {
    run.seconds = run_one(run.cache, cache_bps, &run.report, &run.hit_rate);
    std::fprintf(stderr, "%-9s %.3f s  (hit rate %.2f)\n", run.name, run.seconds,
                 run.hit_rate);
  }
  const double base_seconds = runs.front().seconds;

  // Gate 1: at zero drift tolerance, the cached day is byte-identical to the
  // uncached one.
  core::FleetDayReport exact_cached;
  run_one(true, 0, &exact_cached, nullptr);
  const bool exact_identical = ReportsIdentical(runs.front().report, exact_cached);

  // Gate 2: the observability layer. Re-run the cache-off day with a
  // MetricsRegistry attached to both the engine and the driver; min-of-3
  // per side to shave scheduler noise. Byte-identical reports are a hard
  // requirement; the overhead gate is opt-in (nightly CI passes
  // --gate-overhead-bps 200, i.e. <= 2% of decide time).
  obs::MetricsRegistry registry;
  core::DecisionEngine metrics_engine(env.phoebe->bundle(), &registry);
  double plain_seconds = 0.0, metrics_seconds = 0.0;
  bool metrics_identical = true;
  {
    core::FleetConfig mcfg;
    mcfg.num_cuts = num_cuts;
    mcfg.num_threads = 1;
    auto timed_day = [&](const core::DecisionEngine* engine,
                         obs::MetricsRegistry* reg,
                         core::FleetDayReport* report) -> double {
      mcfg.metrics = reg;
      core::DecisionArm arm(engine, mcfg);
      auto t0 = std::chrono::steady_clock::now();
      auto r = arm.RunDay(ctx);
      auto t1 = std::chrono::steady_clock::now();
      r.status().Check();
      *report = *std::move(r);
      return Seconds(t0, t1);
    };
    core::FleetDayReport plain_report, metrics_report;
    plain_seconds = timed_day(&env.phoebe->engine(), nullptr, &plain_report);
    metrics_seconds = timed_day(&metrics_engine, &registry, &metrics_report);
    for (int rep = 1; rep < 3; ++rep) {
      plain_seconds = std::min(
          plain_seconds, timed_day(&env.phoebe->engine(), nullptr, &plain_report));
      metrics_seconds = std::min(
          metrics_seconds, timed_day(&metrics_engine, &registry, &metrics_report));
    }
    metrics_identical = ReportsIdentical(plain_report, metrics_report);
    std::fprintf(stderr, "metrics off %.3f s, on %.3f s (overhead %.2f%%)\n",
                 plain_seconds, metrics_seconds,
                 100.0 * (metrics_seconds - plain_seconds) / plain_seconds);
  }
  const double overhead_frac = (metrics_seconds - plain_seconds) / plain_seconds;

  if (!metrics_out.empty()) {
    std::ofstream tele(metrics_out, std::ios::binary);
    if (!tele) {
      std::fprintf(stderr, "cannot open '%s'\n", metrics_out.c_str());
      return 1;
    }
    tele << obs::TelemetryLineJson(registry.Snapshot(), "run", -1) << "\n";
    std::fprintf(stderr, "wrote telemetry to %s\n", metrics_out.c_str());
  }

  JsonWriter json;
  json.BeginObject();
  json.KV("bench", "decide_throughput");
  json.KV("jobs", jobs.size());
  json.KV("eligible_jobs", eligible);
  json.KV("eligible_stages", eligible_stages);
  json.KV("num_cuts", num_cuts);
  json.KV("cache_capacity", cache_capacity);
  json.KV("cache_bps", cache_bps);
  json.Key("series").BeginArray();
  for (const ConfigRun& run : runs) {
    json.BeginObject();
    json.KV("config", run.name);
    json.KV("cache", run.cache);
    json.KV("seconds", run.seconds);
    json.KV("decisions_per_sec", static_cast<double>(eligible) / run.seconds);
    json.KV("stage_scorings_per_sec",
            static_cast<double>(eligible_stages) / run.seconds);
    json.KV("cache_hit_rate", run.hit_rate);
    json.KV("speedup_vs_cache_off", base_seconds / run.seconds);
    json.EndObject();
  }
  json.EndArray();
  json.KV("exact_mode_reports_identical", exact_identical);
  json.Key("metrics_overhead").BeginObject();
  json.KV("plain_seconds", plain_seconds);
  json.KV("metrics_seconds", metrics_seconds);
  json.KV("overhead_fraction", overhead_frac);
  json.KV("reports_identical", metrics_identical);
  json.KV("gate_bps", gate_overhead_bps);
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  if (!exact_identical) {
    std::fprintf(stderr, "FAIL: exact-mode cache changed a decision\n");
    return 1;
  }
  if (!metrics_identical) {
    std::fprintf(stderr, "FAIL: attaching metrics changed a decision\n");
    return 1;
  }
  if (gate_overhead_bps > 0 && overhead_frac * 1e4 > gate_overhead_bps) {
    std::fprintf(stderr, "FAIL: metrics overhead %.1f bps exceeds the %d bps gate\n",
                 overhead_frac * 1e4, gate_overhead_bps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
