// Hotspot relief: the paper's first application (§5.2, §6.2).
//
// A pod of machines is running out of local SSD because of temp data. This
// example trains Phoebe on the pod's history, picks checkpoint cuts under a
// global-storage budget (online knapsack, §5.4), and replays the day on the
// cluster simulator to show the per-machine SSD pressure before and after.
//
//   $ ./build/examples/hotspot_relief
#include <algorithm>
#include <cstdio>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

using namespace phoebe;

int main() {
  // --- Workload history and training (5 days in, decide on day 5).
  workload::WorkloadConfig wcfg;
  wcfg.num_templates = 80;
  wcfg.seed = 23;
  workload::WorkloadGenerator gen(wcfg);
  telemetry::WorkloadRepository repo;
  for (int d = 0; d < 6; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();

  core::PhoebePipeline phoebe;
  phoebe.Train(repo, 0, 5).Check();
  auto stats = repo.StatsBefore(5);

  // Compress the day into a busy 6-hour window so the pod is saturated.
  std::vector<workload::JobInstance> jobs = repo.Day(5);
  for (auto& job : jobs) job.submit_time *= 6.0 * 3600.0 / 86400.0;
  std::printf("day 5: %zu jobs submitted to the pod\n", jobs.size());

  // --- The fleet driver handles the whole day: per-job cuts, then admission
  // under the global-storage budget (threshold calibrated on day 4).
  // First measure the unconstrained demand to size the budget.
  const core::DayContext day(5, jobs, stats);
  core::DecisionArm unbudgeted(&phoebe.engine(), core::FleetConfig{});
  auto open_report = unbudgeted.RunDay(day);
  open_report.status().Check();

  core::FleetConfig fleet_cfg;
  fleet_cfg.storage_budget_bytes = 0.8 * open_report->storage_used_bytes;
  core::DecisionArm fleet(&phoebe.engine(), fleet_cfg);
  const telemetry::HistoricStats history_stats = repo.StatsBefore(4);
  fleet.Calibrate(core::DayContext(4, repo.Day(4), history_stats)).Check();
  auto report = fleet.RunDay(day);
  report.status().Check();
  std::printf("global-storage budget: %s (threshold pi* = %.3g s)\n",
              HumanBytes(fleet_cfg.storage_budget_bytes).c_str(),
              report->knapsack_threshold);
  std::printf("admitted %d of %d cuts (%s of storage used)\n\n",
              report->jobs_admitted, report->jobs_with_cut,
              HumanBytes(report->storage_used_bytes).c_str());
  std::vector<cluster::CutSet> cuts = report->AdmittedCuts();

  // --- Replay the pod with and without the checkpoints.
  cluster::ClusterConfig ccfg;
  ccfg.num_machines = 40;
  ccfg.skus[0].ssd_gb = 1100.0;
  ccfg.skus[1].ssd_gb = 800.0;
  ccfg.skus[2].ssd_gb = 1500.0;
  cluster::ClusterSimulator before_sim(ccfg), after_sim(ccfg);  // same placement
  auto before = before_sim.SimulateTempUsage(jobs);
  auto after = after_sim.SimulateTempUsage(jobs, &cuts);

  TablePrinter table({"metric", "before", "after", "change"});
  auto pct = [](double a, double b) {
    return a > 0 ? StrFormat("%+.1f%%", 100.0 * (b - a) / a) : std::string("-");
  };
  table.AddRow({"fleet temp byte-hours",
                StrFormat("%.1f TB*h", before.total_byte_seconds / 1e12 / 3600),
                StrFormat("%.1f TB*h", after.total_byte_seconds / 1e12 / 3600),
                pct(before.total_byte_seconds, after.total_byte_seconds)});
  table.AddRow({"fleet peak temp", HumanBytes(before.fleet_peak_bytes),
                HumanBytes(after.fleet_peak_bytes),
                pct(before.fleet_peak_bytes, after.fleet_peak_bytes)});
  for (size_t k = 0; k < ccfg.skus.size(); ++k) {
    table.AddRow({StrFormat("machines out of SSD (%s)", ccfg.skus[k].name.c_str()),
                  StrFormat("%.0f%%", 100 * before.FractionAbove(static_cast<int>(k), 1.0)),
                  StrFormat("%.0f%%", 100 * after.FractionAbove(static_cast<int>(k), 1.0)),
                  ""});
  }
  table.Print();
  std::printf("\n(paper: Phoebe frees >70%% of hotspot temp storage with ~1s of "
              "compile-time overhead per job)\n");
  return 0;
}
