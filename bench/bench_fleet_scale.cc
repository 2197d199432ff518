// Fleet-driver scaling bench: one large day (10k jobs by default) through
// DecisionArm::RunDay at 1/2/4/8 threads, reporting wall time, speedup, and
// — the contract that makes the parallel driver deployable — that every
// thread count produced a byte-identical FleetDayReport. Emits a JSON
// document on stdout for dashboards; human-readable progress goes to stderr.
//
// Speedup is bounded by the physical cores available: on a single-core
// runner every series entry reports ~1x, which is expected, not a
// regression. The JSON includes hardware_concurrency so consumers can judge.
//
// A second series forks N in {1, 2, 4} real processes over the same frozen
// engine: each child decides its owned sub-days (DecideDay), serializes a
// shard blob to a temp file, and the parent merges (CombineFleetShards +
// ReplayDay) — gating that the merged per-day JSON reports are byte-identical
// to an unsharded sequential run. On a single-core runner the process series
// also reports ~1x; the JSON's hardware_concurrency says how to read it.
//
// --metrics-out FILE runs one extra instrumented day (4 threads, metrics
// registry attached to engine + driver) and writes its telemetry JSONL
// artifact — the flight-recorder view the nightly CI uploads next to this
// bench's own JSON.
//
// Usage: bench_fleet_scale [--jobs N] [--num-cuts K] [--budget-gb G]
//                          [--metrics-out FILE]
// Unknown or malformed flags exit 2; --help prints the flag list.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/json.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "obs/metrics.h"

namespace phoebe::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact comparison of the fields that summarize a day; any divergence
/// between thread counts is a determinism bug.
bool ReportsIdentical(const core::FleetDayReport& a, const core::FleetDayReport& b) {
  if (a.jobs_with_cut != b.jobs_with_cut || a.jobs_admitted != b.jobs_admitted ||
      a.storage_used_bytes != b.storage_used_bytes ||
      a.realized_saving_byte_seconds != b.realized_saving_byte_seconds) {
    return false;
  }
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].predicted_value != b.outcomes[i].predicted_value ||
        a.outcomes[i].cut.before_cut != b.outcomes[i].cut.before_cut) {
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  ArgParser args("bench_fleet_scale",
                 "Fleet-day wall time across decision threads and shard processes.");
  args.AddInt("jobs", 10000, "jobs in the benchmarked day");
  args.AddInt("num-cuts", 1, "checkpoint cuts per job");
  args.AddInt("budget-gb", 0, "global storage budget in GB (0 = unlimited)");
  args.AddString("metrics-out", "", "write an instrumented run's telemetry JSONL here");
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
  const int budget_gb = args.GetInt("budget-gb");
  const std::string metrics_out = args.GetString("metrics-out");

  std::fprintf(stderr, "training pipeline...\n");
  BenchEnv env = MakeEnv(/*num_templates=*/60, /*train_days=*/3, /*test_days=*/1);

  // Build one oversized day by concatenating generated days beyond the
  // stored span until the target job count is reached. Stats stay fixed at
  // the test-day view — exactly what the driver would see in production.
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
  std::fprintf(stderr, "day assembled: %zu jobs\n", jobs.size());
  const core::DayContext day(0, jobs, stats);
  const telemetry::HistoricStats calibration_stats =
      env.repo.StatsBefore(env.train_days - 1);
  const core::DayContext calibration_day(-1, env.repo.Day(env.train_days - 1),
                                         calibration_stats);

  core::FleetConfig cfg;
  cfg.num_cuts = num_cuts;
  if (budget_gb > 0) cfg.storage_budget_bytes = budget_gb * 1e9;

  struct Series {
    int threads;
    double seconds;
    bool identical;
  };
  std::vector<Series> series;
  core::FleetDayReport baseline;

  for (int threads : {1, 2, 4, 8}) {
    cfg.num_threads = threads;
    core::DecisionArm arm(&env.phoebe->engine(), cfg);
    if (budget_gb > 0) arm.Calibrate(calibration_day).Check();
    auto t0 = std::chrono::steady_clock::now();
    auto report = arm.RunDay(day);
    auto t1 = std::chrono::steady_clock::now();
    report.status().Check();
    bool identical = true;
    if (threads == 1) {
      baseline = *std::move(report);
    } else {
      identical = ReportsIdentical(baseline, *report);
    }
    series.push_back({threads, Seconds(t0, t1), identical});
    std::fprintf(stderr, "threads %d: %.3f s%s\n", threads, series.back().seconds,
                 identical ? "" : "  REPORT MISMATCH");
  }

  // --- Sharded-process series --------------------------------------------
  // Partition the big day into sub-days (the unit the shard protocol splits
  // on), then fork N real processes over the same frozen engine. Each child
  // decides its owned sub-days and writes a shard blob; the parent merges
  // and replays, gating byte-identity of the per-day JSON reports against an
  // unsharded sequential run on one arm.
  const int kSubDays = 8;
  std::vector<std::vector<workload::JobInstance>> sub_days(kSubDays);
  for (size_t i = 0; i < jobs.size(); ++i) {
    sub_days[i % static_cast<size_t>(kSubDays)].push_back(jobs[i]);
  }
  auto sub_day = [&](int d) {
    return core::DayContext(d, sub_days[static_cast<size_t>(d)], stats);
  };

  cfg.num_threads = 1;  // isolate process-level parallelism
  auto run_sequential = [&]() {
    core::DecisionArm arm(&env.phoebe->engine(), cfg);
    if (budget_gb > 0) arm.Calibrate(calibration_day).Check();
    std::string out;
    for (int d = 0; d < kSubDays; ++d) {
      auto report = arm.RunDay(sub_day(d));
      report.status().Check();
      out += core::FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  };
  auto t_seq0 = std::chrono::steady_clock::now();
  const std::string sequential_json = run_sequential();
  const double sequential_seconds = Seconds(t_seq0, std::chrono::steady_clock::now());
  std::fprintf(stderr, "sequential %d sub-days: %.3f s\n", kSubDays,
               sequential_seconds);

  struct ProcSeries {
    int procs;
    double decide_seconds;
    double merge_seconds;
    bool identical;
  };
  std::vector<ProcSeries> proc_series;
  const uint32_t bundle_checksum = env.phoebe->bundle()->checksum();
  const std::filesystem::path tmp_dir = std::filesystem::temp_directory_path();

  for (int procs : {1, 2, 4}) {
    std::vector<std::filesystem::path> blob_paths;
    for (int s = 0; s < procs; ++s) {
      blob_paths.push_back(tmp_dir / ("phoebe_fleet_scale_" +
                                      std::to_string(::getpid()) + "_" +
                                      std::to_string(procs) + "_" +
                                      std::to_string(s) + ".blob"));
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    for (int s = 0; s < procs; ++s) {
      pid_t pid = ::fork();
      if (pid == 0) {
        // Child: decide owned sub-days against the (copy-on-write shared)
        // engine and write one shard blob. _exit skips parent-owned atexit
        // state; nonzero status reports any failure to the parent.
        core::DecisionArm child(&env.phoebe->engine(), cfg);
        core::FleetShardBlob owned;
        owned.header = core::FleetShardHeader{s, procs, kSubDays, {bundle_checksum}};
        // Unbudgeted runs have no cross-day state, so each child replays its
        // own sub-days and embeds the reports — the parent's merge is then
        // pure report concatenation (the shard-side replay fast path).
        const bool shard_side_replay = budget_gb <= 0;
        for (int d = 0; d < kSubDays; ++d) {
          if (!core::ShardOwnsDay(d, s, procs)) continue;
          auto decisions = child.DecideDay(sub_day(d));
          if (!decisions.ok()) ::_exit(1);
          core::ShardArmDay arm_day{*std::move(decisions), std::nullopt};
          if (shard_side_replay) {
            auto rep = child.ReplayDay(sub_day(d), arm_day.decisions);
            if (!rep.ok()) ::_exit(1);
            arm_day.report = *std::move(rep);
          }
          owned.days[d].push_back(std::move(arm_day));
        }
        auto blob = core::SerializeFleetShard(owned);
        if (!blob.ok()) ::_exit(1);
        std::ofstream out(blob_paths[static_cast<size_t>(s)], std::ios::binary);
        out << *blob;
        out.flush();
        ::_exit(out.good() ? 0 : 1);
      }
      PHOEBE_CHECK(pid > 0);
      pids.push_back(pid);
    }
    bool children_ok = true;
    for (pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      children_ok = children_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    const double decide_seconds = Seconds(t0, std::chrono::steady_clock::now());
    PHOEBE_CHECK(children_ok);

    auto t1 = std::chrono::steady_clock::now();
    std::vector<core::FleetShardBlob> blobs;
    for (const std::filesystem::path& p : blob_paths) {
      std::ifstream in(p, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      auto blob = core::ParseFleetShard(buf.str());
      blob.status().Check();
      blobs.push_back(*std::move(blob));
      std::filesystem::remove(p);
    }
    auto merged = core::CombineFleetShards(blobs, {bundle_checksum});
    merged.status().Check();
    std::string merged_json;
    if (budget_gb <= 0) {
      // Shard-side replay embedded every report: merge is concatenation.
      for (int d = 0; d < kSubDays; ++d) {
        const std::optional<core::FleetDayReport>& report = merged->at(d)[0].report;
        PHOEBE_CHECK(report.has_value());
        merged_json += core::FleetDayReportJson(*report, d) + "\n";
      }
    } else {
      core::DecisionArm merge_arm(&env.phoebe->engine(), cfg);
      merge_arm.Calibrate(calibration_day).Check();
      for (int d = 0; d < kSubDays; ++d) {
        auto report = merge_arm.ReplayDay(sub_day(d), merged->at(d)[0].decisions);
        report.status().Check();
        merged_json += core::FleetDayReportJson(*report, d) + "\n";
      }
    }
    const double merge_seconds = Seconds(t1, std::chrono::steady_clock::now());
    const bool identical = merged_json == sequential_json;
    proc_series.push_back({procs, decide_seconds, merge_seconds, identical});
    std::fprintf(stderr, "procs %d: decide %.3f s, merge %.3f s%s\n", procs,
                 decide_seconds, merge_seconds,
                 identical ? "" : "  REPORT MISMATCH");
  }

  // Optional instrumented run: one extra day at 4 threads with the metrics
  // registry attached, outside every timed series so the numbers above stay
  // clean. The resulting telemetry JSONL is the artifact CI uploads.
  if (!metrics_out.empty()) {
    obs::MetricsRegistry registry;
    core::DecisionEngine metrics_engine(env.phoebe->bundle(), &registry);
    core::FleetConfig mcfg = cfg;
    mcfg.num_threads = 4;
    mcfg.metrics = &registry;
    core::DecisionArm arm(&metrics_engine, mcfg);
    if (budget_gb > 0) arm.Calibrate(calibration_day).Check();
    arm.RunDay(day).status().Check();
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
  json.KV("bench", "fleet_scale");
  json.KV("jobs", jobs.size());
  json.KV("num_cuts", num_cuts);
  json.KV("budget_gb", budget_gb);
  json.KV("hardware_concurrency", ThreadPool::Resolve(0));
  json.Key("series").BeginArray();
  for (const Series& s : series) {
    json.BeginObject();
    json.KV("threads", s.threads);
    json.KV("seconds", s.seconds);
    json.KV("speedup", series.front().seconds / s.seconds);
    json.KV("identical_to_serial", s.identical);
    json.EndObject();
  }
  json.EndArray();
  json.Key("process_series").BeginArray();
  {
    json.BeginObject();
    json.KV("processes", 0);  // unsharded sequential baseline
    json.KV("seconds", sequential_seconds);
    json.KV("sub_days", kSubDays);
    json.EndObject();
  }
  for (const ProcSeries& s : proc_series) {
    json.BeginObject();
    json.KV("processes", s.procs);
    json.KV("decide_seconds", s.decide_seconds);
    json.KV("merge_seconds", s.merge_seconds);
    json.KV("decide_speedup", sequential_seconds / s.decide_seconds);
    json.KV("identical_to_sequential", s.identical);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  for (const Series& s : series) {
    if (!s.identical) return 1;  // determinism violation is a bench failure
  }
  for (const ProcSeries& s : proc_series) {
    if (!s.identical) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace phoebe::bench

int main(int argc, char** argv) { return phoebe::bench::Run(argc, argv); }
