// Lifecycle soak: the continuous-operation loop run for a month of simulated
// days (30 by default), twice, under deliberately different execution
// configurations — run A serial and uncached, run B threaded with the
// exact-mode template cache — gating that every artifact the loop emits
// (promotion log, per-day report JSON, shadow diffs) is byte-identical
// between the two. Any divergence is a determinism regression and the bench
// exits nonzero. This is the nightly CI's long-horizon complement to
// lifecycle_determinism_test's 6-day unit pin.
//
// Emits a JSON summary on stdout (days, retrains, promotions, rejections,
// per-run wall time, the identical verdict); human-readable progress goes to
// stderr. With --out-dir DIR the artifacts of both runs are written under
// DIR/runA and DIR/runB for upload — diffing the two trees by hand shows
// exactly where a nondeterministic run diverged.
//
// Usage: bench_lifecycle_soak [--days N] [--templates T] [--seed S]
//                             [--out-dir DIR]
// An unknown flag is an error (exit 2).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/json.h"
#include "lifecycle/lifecycle.h"
#include "workload/generator.h"

namespace phoebe::bench {
namespace {

/// Every artifact stream one soak run produces, rendered to the exact bytes
/// the driver writes under an out_dir.
struct SoakArtifacts {
  std::string promotion_log;
  std::string day_reports;
  std::string shadow;
  size_t retrains = 0;
  size_t promotions = 0;
  size_t jobs = 0;
  double seconds = 0.0;
};

SoakArtifacts RunSoak(const char* label, int days, int templates, uint64_t seed,
                      int num_threads, bool cache, const std::string& out_dir) {
  core::PipelineConfig pipeline = core::PhoebePipeline::DefaultConfig();
  pipeline.exec_predictor.gbdt.num_trees = 12;
  pipeline.size_predictor.gbdt.num_trees = 12;
  pipeline.ttl.gbdt.num_trees = 12;

  lifecycle::LifecycleConfig cfg;
  cfg.pipeline = pipeline;
  cfg.policy.min_history_days = 2;
  cfg.policy.train_window_days = 4;
  cfg.policy.max_age_days = 3;  // age is the floor; accuracy can fire earlier
  cfg.policy.min_exec_r2 = 0.5;
  cfg.backtest_window_days = 3;
  cfg.shadow = true;
  cfg.mtbf_seconds = kMtbfSeconds;
  cfg.fleet.num_threads = num_threads;
  if (cache) {
    cfg.fleet.template_cache.enabled = true;
    cfg.fleet.template_cache.capacity = 256;
    cfg.fleet.template_cache.quantize_bps = 0;  // exact mode is byte-neutral
  }
  cfg.out_dir = out_dir;  // empty = in-memory only

  workload::WorkloadConfig wcfg;
  wcfg.num_templates = templates;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  telemetry::WorkloadRepository repo;
  lifecycle::LifecycleDriver driver(cfg);

  SoakArtifacts out;
  auto t0 = std::chrono::steady_clock::now();
  for (int d = 0; d < days; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    auto report = driver.OnDayCompleted(&repo, d);
    report.status().Check();
    out.day_reports += lifecycle::LifecycleDayReportJson(*report) + "\n";
    out.jobs += static_cast<size_t>(report->jobs);
    if (report->retrained) {
      ++out.retrains;
      std::fprintf(stderr, "[%s] day %d: retrain (%s) -> %s\n", label, d,
                   report->reason.c_str(), report->verdict.c_str());
    }
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
  out.promotion_log = lifecycle::SerializePromotionLog(driver.promotion_records());
  for (const lifecycle::ShadowDayDiff& diff : driver.shadow_diffs()) {
    out.shadow += diff.text;
  }
  for (const lifecycle::PromotionRecord& r : driver.promotion_records()) {
    out.promotions += (r.verdict == "promoted") ? 1u : 0u;
  }
  std::fprintf(stderr,
               "[%s] %d days, %zu jobs, %zu retrains, %zu promoted, %.1f s\n",
               label, days, out.jobs, out.retrains, out.promotions, out.seconds);
  return out;
}

int Run(int argc, char** argv) {
  ArgParser args("bench_lifecycle_soak",
                 "The lifecycle loop for --days simulated days, run twice under "
                 "different thread/cache configs.");
  args.AddInt("days", 30, "simulated days per run");
  args.AddInt("templates", 16, "job templates in the generator");
  args.AddInt("seed", 23, "workload generator seed");
  args.AddString("out-dir", "",
                 "write both runs' artifacts under <dir>/runA and <dir>/runB");
  if (Status st = args.Parse(argc, argv, 1); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.Help().c_str(), stdout);
    return 0;
  }
  const int days = args.GetInt("days");
  const int templates = args.GetInt("templates");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed"));
  const std::string out_dir = args.GetString("out-dir");

  Banner("lifecycle_soak",
         "30-day continuous-operation soak; two runs under different "
         "thread/cache configs must be byte-identical");

  const std::string dir_a = out_dir.empty() ? "" : out_dir + "/runA";
  const std::string dir_b = out_dir.empty() ? "" : out_dir + "/runB";
  const SoakArtifacts a =
      RunSoak("runA 1-thread uncached", days, templates, seed,
              /*num_threads=*/1, /*cache=*/false, dir_a);
  const SoakArtifacts b =
      RunSoak("runB 4-thread cached", days, templates, seed,
              /*num_threads=*/4, /*cache=*/true, dir_b);

  const bool log_ok = a.promotion_log == b.promotion_log;
  const bool reports_ok = a.day_reports == b.day_reports;
  const bool shadow_ok = a.shadow == b.shadow;
  const bool identical = log_ok && reports_ok && shadow_ok;
  if (!identical) {
    std::fprintf(stderr,
                 "NONDETERMINISM: promotion_log %s, day_reports %s, shadow %s\n",
                 log_ok ? "ok" : "DIVERGED", reports_ok ? "ok" : "DIVERGED",
                 shadow_ok ? "ok" : "DIVERGED");
  }

  JsonWriter json;
  json.BeginObject();
  json.KV("bench", "lifecycle_soak");
  json.KV("days", days);
  json.KV("templates", templates);
  json.KV("jobs", a.jobs);
  json.KV("retrains", a.retrains);
  json.KV("promotions", a.promotions);
  json.KV("rejections", a.retrains - a.promotions);
  json.KV("run_a_seconds", a.seconds);
  json.KV("run_b_seconds", b.seconds);
  json.KV("promotion_log_bytes", a.promotion_log.size());
  json.KV("shadow_bytes", a.shadow.size());
  json.KV("identical", identical);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
