// Ablation for the paper's footnote 1: instead of checkpointing, one could
// make the scheduler SSD-aware (place tasks on the least-loaded machines).
// The paper rejects that as operationally expensive cluster-wide tuning.
// This bench quantifies the trade: storage-aware placement spreads the SAME
// temp data more evenly (lower per-machine peaks) but cannot reduce the
// total byte-hours; checkpointing removes the data itself. Both combined is
// strictly best.
#include <cstdio>

#include "cluster/cluster.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/fleet.h"
#include "bench_util.h"

using namespace phoebe;

int main() {
  bench::Banner("Placement ablation (footnote 1)",
                "SSD-aware placement vs checkpointing vs both, same workload.");

  auto env = bench::MakeEnv(80, 5, 1, /*seed=*/23);
  std::vector<workload::JobInstance> jobs = env.TestDay(0);
  for (auto& job : jobs) job.submit_time *= 6.0 * 3600.0 / 86400.0;  // busy pod

  core::DecisionArm fleet(&env.phoebe->engine(), core::FleetConfig{});
  auto report = fleet.RunDay(core::DayContext(0, jobs, env.StatsForTestDay(0)));
  report.status().Check();
  auto cuts = report->AdmittedCuts();

  auto run = [&](cluster::Placement placement, const std::vector<cluster::CutSet>* c) {
    cluster::ClusterConfig cfg;
    cfg.num_machines = 40;
    cfg.placement = placement;
    for (auto& sku : cfg.skus) sku.ssd_gb = 1100.0;
    cluster::ClusterSimulator sim(cfg);
    return sim.SimulateTempUsage(jobs, c);
  };

  struct Row {
    const char* name;
    cluster::Placement placement;
    const std::vector<cluster::CutSet>* cuts;
  };
  const Row rows[] = {
      {"random placement, no checkpoints", cluster::Placement::kRandomSpread, nullptr},
      {"SSD-aware placement only", cluster::Placement::kLeastLoaded, nullptr},
      {"checkpoints only (Phoebe)", cluster::Placement::kRandomSpread, &cuts},
      {"both", cluster::Placement::kLeastLoaded, &cuts},
  };

  TablePrinter table({"policy", "temp TB*h", "worst machine peak", "machines out of SSD %"});
  for (const Row& r : rows) {
    auto rep = run(r.placement, r.cuts);
    double out_frac = 0.0;
    size_t nm = rep.peak_fraction.size();
    for (double f : rep.peak_fraction) out_frac += (f >= 1.0) ? 1.0 : 0.0;
    double worst = 0.0;
    for (double p : rep.peak_bytes) worst = std::max(worst, p);
    table.AddRow({r.name, StrFormat("%.2f", rep.total_byte_seconds / 1e12 / 3600.0),
                  HumanBytes(worst),
                  StrFormat("%.0f", 100.0 * out_frac / static_cast<double>(nm))});
  }
  table.Print();
  std::printf("\nreading: SSD-aware placement levels peaks but leaves total "
              "byte-hours unchanged;\ncheckpointing removes the data (and also "
              "enables fast restart + stats collection),\nwhich is why the "
              "paper chooses it over scheduler changes.\n");
  return 0;
}
