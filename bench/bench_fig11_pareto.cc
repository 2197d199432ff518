// Figure 11: Pareto frontier for multiple cuts — median global-storage usage
// vs median temp-data saving (both normalized by the job's total temp
// byte-hours), for 1..3 cuts, split by job size. Paper findings: more cuts
// help only large jobs (> 14 GB*Hour temp usage), and some jobs have "free"
// cuts (independent sub-graphs needing no global storage).
#include <cstdio>

#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/checkpoint.h"
#include "core/evaluate.h"
#include "bench_util.h"

using namespace phoebe;

int main() {
  bench::Banner("Figure 11",
                "Normalized global-storage use vs normalized temp saving for "
                "1..3 cuts (multi-cut heuristic DP over true costs), by job size.");

  auto env = bench::MakeEnv(60, 0, 1, /*seed=*/17);  // truth-based: no training
  const auto& jobs = env.TestDay(0);

  const double kSizeCutGbh = 14.0;  // paper's large-job threshold, GB*Hour
  TablePrinter table({"job class", "cuts", "jobs", "median temp saving (norm)",
                      "median global use (norm)"});
  int free_cut_jobs = 0, eligible_jobs = 0;

  for (int large = 0; large <= 1; ++large) {
    for (int cuts = 1; cuts <= 3; ++cuts) {
      std::vector<double> savings, globals;
      for (const auto& job : jobs) {
        if (job.graph.num_stages() < 4) continue;
        double total_gbh = job.TempByteSeconds() / 1e9 / 3600.0;
        if ((total_gbh > kSizeCutGbh) != (large == 1)) continue;
        auto costs = env.phoebe->engine().BuildCosts(job, core::CostSource::kTruth);
        costs.status().Check();
        auto result = core::OptimizeTempStorageMultiCut(job.graph, *costs, cuts);
        result.status().Check();

        double total_bs = job.TempByteSeconds();
        double total_bytes = job.TotalTempBytes();
        if (total_bs <= 0 || total_bytes <= 0) continue;
        double saved = 0.0, global_bytes = 0.0;
        for (const auto& cut : *result) {
          global_bytes += cut.global_bytes;
        }
        // Realized saving: innermost-to-outermost groups release at their
        // own cut clear time.
        std::vector<bool> prev(job.graph.num_stages(), false);
        for (const auto& cut : *result) {
          double clear = cluster::CutClearTime(job, cut.cut);
          for (size_t u = 0; u < job.graph.num_stages(); ++u) {
            if (cut.cut.before_cut[u] && !prev[u]) {
              double held = std::max(0.0, clear - job.truth[u].end_time);
              saved += job.truth[u].output_bytes *
                       std::max(0.0, job.truth[u].ttl - held);
            }
          }
          prev = cut.cut.before_cut;
        }
        savings.push_back(saved / total_bs);
        globals.push_back(global_bytes / total_bytes);
      }
      table.AddRow({large ? StrFormat("large (>%.0f GB*h)", kSizeCutGbh) : "small",
                    StrFormat("%d", cuts), StrFormat("%zu", savings.size()),
                    StrFormat("%.3f", Median(savings)),
                    StrFormat("%.3f", Median(globals))});
    }
  }
  table.Print();

  // "Free" cuts: jobs whose plan decomposes into independent sub-graphs; a
  // cut along a component boundary persists nothing (found by the IP when
  // alpha makes global storage expensive — here detected structurally).
  for (const auto& job : jobs) {
    if (job.graph.num_stages() < 4) continue;
    ++eligible_jobs;
    // Weakly-connected components via repeated BFS over undirected edges.
    const size_t n = job.graph.num_stages();
    std::vector<int> comp(n, -1);
    int n_comp = 0;
    for (size_t s = 0; s < n; ++s) {
      if (comp[s] >= 0) continue;
      std::vector<size_t> stack{s};
      comp[s] = n_comp;
      while (!stack.empty()) {
        size_t u = stack.back();
        stack.pop_back();
        auto visit = [&](dag::StageId v) {
          if (comp[static_cast<size_t>(v)] < 0) {
            comp[static_cast<size_t>(v)] = n_comp;
            stack.push_back(static_cast<size_t>(v));
          }
        };
        for (dag::StageId v : job.graph.downstream(static_cast<dag::StageId>(u))) visit(v);
        for (dag::StageId v : job.graph.upstream(static_cast<dag::StageId>(u))) visit(v);
      }
      ++n_comp;
    }
    if (n_comp < 2) continue;
    // The component finishing first forms a free cut with positive saving.
    for (int c = 0; c < n_comp; ++c) {
      cluster::CutSet cut;
      cut.before_cut.assign(n, false);
      for (size_t u = 0; u < n; ++u) cut.before_cut[u] = (comp[u] == c);
      double clear = cluster::CutClearTime(job, cut);
      double saved = 0.0;
      for (size_t u = 0; u < n; ++u) {
        if (!cut.before_cut[u]) continue;
        double held = std::max(0.0, clear - job.truth[u].end_time);
        saved += job.truth[u].output_bytes * std::max(0.0, job.truth[u].ttl - held);
      }
      if (saved > 0.0 && cluster::GlobalStorageBytes(job, cut) == 0.0) {
        ++free_cut_jobs;
        break;
      }
    }
  }
  std::printf("\njobs with a 'free' cut (independent sub-graphs; positive saving, "
              "zero global storage): %d of %d\n(paper: the IP with a high global-"
              "storage cost finds such cuts; extra cuts pay off mainly on large jobs)\n",
              free_cut_jobs, eligible_jobs);
  return 0;
}
