// Scenario sweep: every named hostile-workload preset (baseline, zipf,
// flash-crowd, failure-storm, drift-sudden, drift-gradual) run through the
// continuous-operation loop, reporting per scenario what the preset actually
// stresses — decision cost (1 - mean realized saving), the template cache's
// hit rate on the final day, the incumbent's mean exec R^2 (the drift
// signal), and how often RetrainPolicy fired and promoted. The failure-storm
// preset reaches the canary backtest through LifecycleConfig::mtbf_factor,
// so its storm days weigh recovery more.
//
// Each scenario also runs its loop twice under deliberately different
// execution configs (serial uncached vs threaded exact-cache) and
// byte-compares the day reports and promotion log: a scenario only reshapes
// workload generation, so every preset must keep the determinism contract.
// Any divergence exits nonzero — tools/bench_compare.py additionally gates
// the checked-in snapshot on the per-row `deterministic` flag.
//
// Emits one JSON document on stdout (`"bench": "scenario_sweep"`, one series
// row per scenario); with --out-dir DIR each scenario's row is also written
// to DIR/scenario_<name>.json for per-preset artifact upload. Progress goes
// to stderr.
//
// Usage: bench_scenario_sweep [--days N] [--templates T] [--seed S]
//                             [--out-dir DIR]
// An unknown flag is an error (exit 2).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/fleet.h"
#include "lifecycle/lifecycle.h"
#include "scenario/scenario.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::bench {
namespace {

/// Everything one lifecycle pass under one scenario produces.
struct LoopArtifacts {
  std::string day_reports;   ///< concatenated LifecycleDayReportJson lines
  std::string promotion_log;
  size_t jobs = 0;
  size_t retrains = 0;
  size_t promotions = 0;
  int served_days = 0;
  double saving_sum = 0.0;  ///< over served days
  double r2_sum = 0.0;      ///< over served days
  int canary_days = 0;
  double canary_sum = 0.0;  ///< incumbent backtest cost over retrain days
  double cache_hit_rate = 0.0;  ///< final-day fleet pass, exact cache
  double seconds = 0.0;
};

LoopArtifacts RunLoop(const scenario::ScenarioSpec& spec, int days,
                      int templates, uint64_t seed, int num_threads,
                      bool cache) {
  core::PipelineConfig pipeline = core::PhoebePipeline::DefaultConfig();
  pipeline.exec_predictor.gbdt.num_trees = 12;
  pipeline.size_predictor.gbdt.num_trees = 12;
  pipeline.ttl.gbdt.num_trees = 12;

  lifecycle::LifecycleConfig cfg;
  cfg.pipeline = pipeline;
  cfg.policy.min_history_days = 2;
  cfg.policy.train_window_days = 4;
  cfg.policy.max_age_days = 4;
  cfg.policy.min_exec_r2 = 0.5;  // drift presets should trip this early
  cfg.backtest_window_days = 3;
  // The recovery objective (OptCheck2, Figure 14): the canary backtest costs
  // each bundle against the failure model, so failure-storm's mtbf_factor
  // spike actually moves promotion decisions instead of being ignored the
  // way the temp-storage objective would.
  cfg.fleet.objective = core::Objective::kRecovery;
  cfg.mtbf_seconds = kMtbfSeconds;
  cfg.mtbf_factor = [spec](int d) { return spec.MtbfFactor(d); };
  cfg.fleet.num_threads = num_threads;
  if (cache) {
    cfg.fleet.template_cache.enabled = true;
    cfg.fleet.template_cache.capacity = 256;
    cfg.fleet.template_cache.quantize_bps = 0;  // exact mode is byte-neutral
  }

  workload::WorkloadConfig wcfg;
  wcfg.num_templates = templates;
  wcfg.seed = seed;
  auto gen = scenario::MakeScenarioGenerator(spec, wcfg);
  telemetry::WorkloadRepository repo;
  lifecycle::LifecycleDriver driver(cfg);

  LoopArtifacts out;
  auto t0 = std::chrono::steady_clock::now();
  for (int d = 0; d < days; ++d) {
    repo.AddDay(d, gen->GenerateDay(d)).Check();
    auto report = driver.OnDayCompleted(&repo, d);
    report.status().Check();
    out.day_reports += lifecycle::LifecycleDayReportJson(*report) + "\n";
    out.jobs += static_cast<size_t>(report->jobs);
    if (report->served) {
      ++out.served_days;
      out.saving_sum += report->saving_fraction;
      out.r2_sum += report->exec_r2;
    }
    if (report->retrained) {
      ++out.retrains;
      // The canary backtest is the one consumer of mtbf_factor: a
      // failure-storm day weighs recovery more and spikes this cost even
      // though the served workload's bytes are untouched.
      if (report->incumbent_cost >= 0.0) {
        ++out.canary_days;
        out.canary_sum += report->incumbent_cost;
      }
    }
  }
  out.promotion_log = lifecycle::SerializePromotionLog(driver.promotion_records());
  for (const lifecycle::PromotionRecord& r : driver.promotion_records()) {
    out.promotions += (r.verdict == "promoted") ? 1u : 0u;
  }

  // Final-day cache pass: the incumbent re-decides the last day through a
  // fresh approximate-mode cache (quantized keys, so recurring templates
  // with drifted inputs still hit). A Zipf-skewed day concentrates traffic
  // on a few hot templates and converts it into a visibly higher hit rate.
  // This pass only feeds the hit-rate metric; the determinism gate compares
  // the loop artifacts above, which never see it.
  if (driver.deployed()) {
    core::DecisionEngine engine(driver.incumbent(), nullptr);
    core::FleetConfig fleet_cfg;
    fleet_cfg.num_threads = num_threads;
    fleet_cfg.template_cache.enabled = true;
    fleet_cfg.template_cache.capacity = 256;
    fleet_cfg.template_cache.quantize_bps = 5000;
    core::DecisionArm fleet(&engine, fleet_cfg);
    const telemetry::HistoricStats stats = repo.StatsBefore(days - 1);
    auto report = fleet.RunDay(core::DayContext(days - 1, repo.Day(days - 1), stats));
    report.status().Check();
    const int64_t lookups = report->cache_hits + report->cache_misses;
    out.cache_hit_rate =
        lookups > 0 ? static_cast<double>(report->cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

/// One scenario's reported row.
struct SweepRow {
  std::string name;
  LoopArtifacts a;  ///< serial uncached run (the reported numbers)
  bool deterministic = false;
  double seconds_b = 0.0;
};

void WriteRow(JsonWriter* json, const SweepRow& row) {
  const int served = row.a.served_days > 0 ? row.a.served_days : 1;
  json->BeginObject();
  json->KV("scenario", row.name);
  json->KV("jobs", row.a.jobs);
  json->KV("served_days", row.a.served_days);
  json->KV("cost", 1.0 - row.a.saving_sum / served);
  json->KV("cache_hit_rate", row.a.cache_hit_rate);
  json->KV("exec_r2", row.a.r2_sum / served);
  json->KV("canary_cost",
           row.a.canary_days > 0 ? row.a.canary_sum / row.a.canary_days : 0.0);
  json->KV("retrains", row.a.retrains);
  json->KV("promotions", row.a.promotions);
  json->KV("deterministic", row.deterministic);
  json->KV("run_a_seconds", row.a.seconds);
  json->KV("run_b_seconds", row.seconds_b);
  json->EndObject();
}

int Run(int argc, char** argv) {
  ArgParser args("bench_scenario_sweep",
                 "Every hostile-workload preset through the lifecycle loop, run "
                 "twice under different thread/cache configs.");
  args.AddInt("days", 10, "simulated days per run");
  args.AddInt("templates", 12, "job templates in the generator");
  args.AddInt("seed", 23, "workload generator seed");
  args.AddString("out-dir", "",
                 "write each scenario's JSON row to <dir>/scenario_<name>.json");
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

  // Banner on stderr: stdout carries exactly one JSON document.
  std::fprintf(stderr,
               "=== scenario_sweep ===\nevery hostile-workload preset through "
               "the continuous-operation loop; each must stay "
               "byte-deterministic across thread/cache configs\n");

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --out-dir %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  std::vector<SweepRow> rows;
  bool all_deterministic = true;
  for (const std::string& name : scenario::ScenarioPresetNames()) {
    scenario::ScenarioSpec spec;
    scenario::ScenarioFromPreset(name, &spec).Check();
    SweepRow row;
    row.name = name;
    row.a = RunLoop(spec, days, templates, seed, /*num_threads=*/1,
                    /*cache=*/false);
    const LoopArtifacts b = RunLoop(spec, days, templates, seed,
                                    /*num_threads=*/4, /*cache=*/true);
    row.seconds_b = b.seconds;
    row.deterministic = row.a.day_reports == b.day_reports &&
                        row.a.promotion_log == b.promotion_log;
    all_deterministic = all_deterministic && row.deterministic;
    const int served = row.a.served_days > 0 ? row.a.served_days : 1;
    std::fprintf(stderr,
                 "[%s] %zu jobs, cost %.4f, cache hit %.2f, r2 %.3f, "
                 "%zu retrains (%zu promoted), %s, %.1f+%.1f s\n",
                 name.c_str(), row.a.jobs, 1.0 - row.a.saving_sum / served,
                 row.a.cache_hit_rate, row.a.r2_sum / served, row.a.retrains,
                 row.a.promotions,
                 row.deterministic ? "deterministic" : "DIVERGED",
                 row.a.seconds, row.seconds_b);

    if (!out_dir.empty()) {
      JsonWriter artifact;
      WriteRow(&artifact, row);
      std::ofstream f(out_dir + "/scenario_" + name + ".json",
                      std::ios::binary);
      f << artifact.str() << "\n";
    }
    rows.push_back(std::move(row));
  }

  JsonWriter json;
  json.BeginObject();
  json.KV("bench", "scenario_sweep");
  json.KV("days", days);
  json.KV("templates", templates);
  json.KV("all_deterministic", all_deterministic);
  json.Key("series").BeginArray();
  for (const SweepRow& row : rows) WriteRow(&json, row);
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  return all_deterministic ? 0 : 1;  // determinism violation = failure
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
