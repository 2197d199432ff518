// Differential property suite for the checkpoint optimizer: the
// Proposition-5.1 TTL-threshold sweep must equal the exact IP for single
// cuts (alpha = 0), the multi-cut DP must dominate the single cut and match
// a brute-force enumeration of nested prefixes, and every emitted cut must
// satisfy the structural oracles — all on hundreds of seeded random DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "core/checkpoint.h"
#include "core/checkpoint_ip.h"
#include "testing/oracles.h"
#include "testing/property.h"

namespace phoebe::testing {
namespace {

using core::CutResult;
using core::IpOptions;
using core::OptimizeTempStorage;
using core::OptimizeTempStorageMultiCut;
using core::SolveTempStorageIp;

/// Graphs the MILP solves in milliseconds; hundreds of them stay fast.
PropertyOptions IpSizedOptions(int num_cases, uint64_t seed) {
  PropertyOptions opt;
  opt.num_cases = num_cases;
  opt.seed = seed;
  opt.graph.min_stages = 3;
  opt.graph.max_stages = 10;
  return opt;
}

double RelTol(double scale) { return 1e-4 * std::max(1.0, std::abs(scale)); }

// --- Proposition 5.1: sweep == exact IP, single cut, alpha = 0. -------------

TEST(PropCheckpointTest, HeuristicMatchesIpOn200RandomDags) {
  auto prop = [](const JobCase& c) -> Status {
    PHOEBE_ASSIGN_OR_RETURN(CutResult heuristic,
                            OptimizeTempStorage(c.graph, c.costs));
    IpOptions opt;
    opt.num_cuts = 1;
    opt.alpha = 0.0;
    opt.milp.time_limit_seconds = 30.0;
    PHOEBE_ASSIGN_OR_RETURN(core::IpResult ip,
                            SolveTempStorageIp(c.graph, c.costs, opt));
    if (!ip.optimal) return Status::Internal("IP did not prove optimality");
    if (std::abs(ip.objective - heuristic.objective) > RelTol(heuristic.objective)) {
      return Status::Internal(
          StrFormat("heuristic %.6e != IP optimum %.6e", heuristic.objective,
                    ip.objective));
    }
    return Status::OK();
  };
  auto report = CheckProperty(IpSizedOptions(200, 0xc0ffee), prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, testing::ScaledCaseCount(200));
}

// The heuristic can never beat the exact optimum, even with alpha > 0 (the
// IP only pays extra for storage, so its alpha=0 optimum bounds the sweep).
TEST(PropCheckpointTest, HeuristicNeverExceedsIpBound) {
  auto prop = [](const JobCase& c) -> Status {
    PHOEBE_ASSIGN_OR_RETURN(CutResult heuristic,
                            OptimizeTempStorage(c.graph, c.costs));
    IpOptions opt;
    opt.milp.time_limit_seconds = 30.0;
    PHOEBE_ASSIGN_OR_RETURN(core::IpResult ip,
                            SolveTempStorageIp(c.graph, c.costs, opt));
    if (!ip.optimal) return VacuousCase("IP stopped before optimality");
    if (heuristic.objective > ip.objective + RelTol(ip.objective)) {
      return Status::Internal(
          StrFormat("heuristic %.6e exceeds proven optimum %.6e",
                    heuristic.objective, ip.objective));
    }
    return Status::OK();
  };
  auto report = CheckProperty(IpSizedOptions(200, 0xfeed), prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.vacuous_cases, 0) << report.Describe();
}

// --- Multi-cut: DP dominance and agreement with the multi-cut IP. ----------

TEST(PropCheckpointTest, DpNeverBelowSingleCutAndMonotoneInCuts) {
  PropertyOptions opt;
  opt.num_cases = 200;
  opt.seed = 0xd1ce;
  opt.graph.min_stages = 3;
  opt.graph.max_stages = 24;
  auto prop = [](const JobCase& c) -> Status {
    PHOEBE_ASSIGN_OR_RETURN(CutResult single, OptimizeTempStorage(c.graph, c.costs));
    double prev = single.objective;
    for (int k = 1; k <= 3; ++k) {
      PHOEBE_ASSIGN_OR_RETURN(std::vector<CutResult> cuts,
                              OptimizeTempStorageMultiCut(c.graph, c.costs, k));
      double obj = cuts.empty() ? 0.0 : cuts.front().objective;
      if (k == 1 && std::abs(obj - single.objective) > RelTol(single.objective)) {
        return Status::Internal(
            StrFormat("DP with 1 cut %.6e != single-cut sweep %.6e", obj,
                      single.objective));
      }
      if (obj + RelTol(prev) < prev) {
        return Status::Internal(
            StrFormat("DP with %d cuts (%.6e) below %d cuts (%.6e)", k, obj, k - 1,
                      prev));
      }
      PHOEBE_RETURN_NOT_OK(CheckCutsNested(cuts));
      for (const CutResult& r : cuts) {
        PHOEBE_RETURN_NOT_OK(CheckCutValid(c.graph, r.cut, /*ancestor_closed=*/true));
      }
      prev = obj;
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, testing::ScaledCaseCount(200));
}

// Reference implementation for the multi-cut DP: exhaustively enumerate all
// strictly increasing tuples of proper end-time prefixes, crediting each
// segment at its own cut's prefix-min TTL (the DP's — and the physical —
// semantics: data checkpointed at an earlier cut clears at that cut's time).
//
// Note this deliberately does NOT compare against the multi-cut IP: the
// paper's constraint (12) (sum_c d_uv^c <= 1) makes the IP's crediting
// edge-disjoint, so a stage entering the first cut is paid the *inner*
// cut's TTL there. Shrinking found a minimal 3-stage witness where the DP
// legitimately exceeds that IP optimum, so "DP <= IP" is not an invariant
// of these two formulations.
double BruteForceMultiCut(const JobCase& c, int max_cuts) {
  const size_t n = c.costs.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (c.costs.end_time[a] != c.costs.end_time[b]) {
      return c.costs.end_time[a] < c.costs.end_time[b];
    }
    return a < b;
  });
  std::vector<double> pre_bytes(n + 1, 0.0), pre_min_ttl(n + 1, 0.0);
  for (size_t k = 0; k < n; ++k) {
    pre_bytes[k + 1] = pre_bytes[k] + c.costs.output_bytes[order[k]];
    pre_min_ttl[k + 1] =
        (k == 0) ? c.costs.ttl[order[k]]
                 : std::min(pre_min_ttl[k], c.costs.ttl[order[k]]);
  }
  double best = 0.0;
  for (size_t k1 = 1; k1 < n; ++k1) {
    double one = pre_bytes[k1] * pre_min_ttl[k1];
    best = std::max(best, one);
    if (max_cuts < 2) continue;
    for (size_t k2 = k1 + 1; k2 < n; ++k2) {
      double two = one + (pre_bytes[k2] - pre_bytes[k1]) * pre_min_ttl[k2];
      best = std::max(best, two);
    }
  }
  return best;
}

TEST(PropCheckpointTest, DpMatchesBruteForceOverNestedPrefixes) {
  PropertyOptions opt;
  opt.num_cases = 200;
  opt.seed = 0xabba;
  opt.graph.min_stages = 3;
  opt.graph.max_stages = 20;
  auto prop = [](const JobCase& c) -> Status {
    for (int k : {1, 2}) {
      PHOEBE_ASSIGN_OR_RETURN(std::vector<CutResult> dp,
                              OptimizeTempStorageMultiCut(c.graph, c.costs, k));
      double dp_obj = dp.empty() ? 0.0 : dp.front().objective;
      double ref = BruteForceMultiCut(c, k);
      if (std::abs(dp_obj - ref) > RelTol(ref)) {
        return Status::Internal(StrFormat(
            "DP with %d cuts %.6e != brute force %.6e", k, dp_obj, ref));
      }
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, testing::ScaledCaseCount(200));
}

// The multi-cut IP itself must be monotone in the cut budget: the 1-cut
// optimum with an empty inner cut (z^0 = 0) is a feasible 2-cut point.
// (Repeating the cut, z^1 = z^0, is not: constraint (12) forbids crediting
// a crossing edge at both cuts.)
TEST(PropCheckpointTest, MultiCutIpMonotoneInCutBudget) {
  auto prop = [](const JobCase& c) -> Status {
    IpOptions opt;
    opt.milp.time_limit_seconds = 30.0;
    opt.num_cuts = 1;
    PHOEBE_ASSIGN_OR_RETURN(core::IpResult one,
                            SolveTempStorageIp(c.graph, c.costs, opt));
    opt.num_cuts = 2;
    PHOEBE_ASSIGN_OR_RETURN(core::IpResult two,
                            SolveTempStorageIp(c.graph, c.costs, opt));
    if (!one.optimal || !two.optimal) {
      return VacuousCase("IP stopped before optimality");
    }
    if (two.objective + RelTol(one.objective) < one.objective) {
      return Status::Internal(
          StrFormat("2-cut IP %.6e below 1-cut IP %.6e", two.objective,
                    one.objective));
    }
    return Status::OK();
  };
  auto report = CheckProperty(IpSizedOptions(200, 0xcafe), prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.vacuous_cases, 0) << report.Describe();
}

// --- Structural oracles and baseline sanity on larger graphs. --------------

TEST(PropCheckpointTest, AllSelectorsEmitValidCutsBoundedByOptimum) {
  PropertyOptions opt;
  opt.num_cases = 300;
  opt.seed = 0x5eed;
  opt.graph.min_stages = 2;
  opt.graph.max_stages = 40;
  auto prop = [](const JobCase& c) -> Status {
    PHOEBE_ASSIGN_OR_RETURN(CutResult best, OptimizeTempStorage(c.graph, c.costs));
    PHOEBE_RETURN_NOT_OK(CheckCutValid(c.graph, best.cut, /*ancestor_closed=*/true));
    // The optimum must match its own reported storage estimate.
    if (!best.cut.empty()) {
      double bytes = core::EstimateGlobalBytes(c.graph, c.costs, best.cut);
      if (std::abs(bytes - best.global_bytes) > RelTol(bytes)) {
        return Status::Internal("CutResult.global_bytes inconsistent");
      }
    }
    if (c.graph.num_stages() < 2) return Status::OK();
    Rng rng(c.graph.num_stages() * 7919ULL);
    PHOEBE_ASSIGN_OR_RETURN(CutResult random,
                            core::RandomCut(c.graph, c.costs, &rng));
    PHOEBE_ASSIGN_OR_RETURN(CutResult mid, core::MidPointCut(c.graph, c.costs));
    for (const CutResult* r : {&random, &mid}) {
      PHOEBE_RETURN_NOT_OK(CheckCutValid(c.graph, r->cut, /*ancestor_closed=*/true));
      if (r->objective > best.objective + RelTol(best.objective)) {
        return Status::Internal("baseline beat the sweep optimum");
      }
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, testing::ScaledCaseCount(300));
}

// The sweep curve itself is the exhaustive enumeration of prefix objectives:
// its maximum over proper prefixes must equal the reported optimum.
TEST(PropCheckpointTest, SweepMaximumEqualsOptimum) {
  PropertyOptions opt;
  opt.num_cases = 200;
  opt.seed = 0x90db;
  opt.graph.max_stages = 40;
  auto prop = [](const JobCase& c) -> Status {
    PHOEBE_ASSIGN_OR_RETURN(std::vector<core::SweepPoint> sweep,
                            core::TempStorageSweep(c.graph, c.costs));
    PHOEBE_ASSIGN_OR_RETURN(CutResult best, OptimizeTempStorage(c.graph, c.costs));
    double max_obj = 0.0;
    for (size_t k = 0; k + 1 < sweep.size(); ++k) {
      max_obj = std::max(max_obj, sweep[k].objective);
    }
    if (std::abs(max_obj - best.objective) > RelTol(max_obj)) {
      return Status::Internal(StrFormat("sweep max %.6e != optimum %.6e", max_obj,
                                        best.objective));
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
}

// OptimizeWeighted with full weight on the temp objective selects the same
// cut as the dedicated sweep (the normalization is a monotone transform).
TEST(PropCheckpointTest, WeightedSweepReducesToSingleObjective) {
  PropertyOptions opt;
  opt.num_cases = 150;
  opt.seed = 0x77aa;
  opt.graph.min_stages = 2;
  opt.graph.max_stages = 30;
  auto prop = [](const JobCase& c) -> Status {
    if (c.graph.num_stages() < 2) return Status::OK();
    PHOEBE_ASSIGN_OR_RETURN(CutResult temp, OptimizeTempStorage(c.graph, c.costs));
    PHOEBE_ASSIGN_OR_RETURN(
        CutResult weighted,
        core::OptimizeWeighted(c.graph, c.costs, /*delta=*/1e-4, /*w_temp=*/1.0,
                               /*w_recovery=*/0.0));
    if (temp.cut.empty() || weighted.cut.empty()) return Status::OK();
    if (temp.cut.before_cut != weighted.cut.before_cut) {
      return Status::Internal("weighted (1, 0) picked a different cut than the sweep");
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
}

// Recovery sweep sanity: valid cut, objective within the trivial bound
// P_F * T-bar <= 1 * max TFS.
TEST(PropCheckpointTest, RecoveryCutIsValidAndBounded) {
  PropertyOptions opt;
  opt.num_cases = 200;
  opt.seed = 0x4ec0;
  opt.graph.min_stages = 2;
  opt.graph.max_stages = 30;
  auto prop = [](const JobCase& c) -> Status {
    if (c.graph.num_stages() < 2) return Status::OK();
    PHOEBE_ASSIGN_OR_RETURN(CutResult cut,
                            core::OptimizeRecovery(c.graph, c.costs, /*delta=*/1e-4));
    PHOEBE_RETURN_NOT_OK(CheckCutValid(c.graph, cut.cut, /*ancestor_closed=*/false));
    double max_tfs = 0.0;
    for (double t : c.costs.tfs) max_tfs = std::max(max_tfs, t);
    if (cut.objective < 0.0 || cut.objective > max_tfs + RelTol(max_tfs)) {
      return Status::Internal(
          StrFormat("recovery objective %.6e outside [0, max TFS %.6e]",
                    cut.objective, max_tfs));
    }
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  EXPECT_TRUE(report.ok) << report.Describe();
}

}  // namespace
}  // namespace phoebe::testing
