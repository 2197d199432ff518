// Tests for the LP/MILP solver substrate: simplex on known problems,
// branch-and-bound against exhaustive enumeration on random 0/1 MILPs and on
// checkpoint-IP models, warm re-solves against cold ones, and model
// validation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/rng.h"
#include "core/checkpoint_ip.h"
#include "solver/milp.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "testing/generators.h"

namespace phoebe::solver {
namespace {

// ---------- Model ----------

TEST(ModelTest, ValidateCatchesBadIndices) {
  Model m;
  int x = m.AddContinuous(0, 1);
  LinearExpr e;
  e.Add(x + 5, 1.0);
  m.AddConstraint(std::move(e), Sense::kLe, 1.0);
  EXPECT_FALSE(m.Validate().ok());
}

TEST(ModelTest, ValidateCatchesBadBounds) {
  Model m;
  m.AddContinuous(2.0, 1.0);
  EXPECT_FALSE(m.Validate().ok());
}

TEST(ModelTest, CountsIntegers) {
  Model m;
  m.AddContinuous(0, 1);
  m.AddBinary();
  m.AddInteger(0, 5);
  EXPECT_EQ(m.num_integer_variables(), 2u);
}

// ---------- LP ----------

TEST(LpTest, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj=12.
  Model m;
  int x = m.AddContinuous(0, kInfinity), y = m.AddContinuous(0, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kLe, 4);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 3), Sense::kLe, 6);
  m.SetObjective(LinearExpr().Add(x, 3).Add(y, 2), true);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 12.0, 1e-7);
  EXPECT_NEAR(sol->values[static_cast<size_t>(x)], 4.0, 1e-7);
  EXPECT_NEAR(sol->values[static_cast<size_t>(y)], 0.0, 1e-7);
}

TEST(LpTest, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x = 1.6, y = 1.2, obj = 2.8.
  Model m;
  int x = m.AddContinuous(0, kInfinity), y = m.AddContinuous(0, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 2), Sense::kGe, 4);
  m.AddConstraint(LinearExpr().Add(x, 3).Add(y, 1), Sense::kGe, 6);
  m.SetObjective(LinearExpr().Add(x, 1).Add(y, 1), false);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 2.8, 1e-7);
}

TEST(LpTest, EqualityConstraint) {
  // max x + y s.t. x + y = 3, x <= 2 -> obj 3.
  Model m;
  int x = m.AddContinuous(0, 2), y = m.AddContinuous(0, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kEq, 3);
  m.SetObjective(LinearExpr().Add(x, 1).Add(y, 1), true);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 3.0, 1e-7);
  EXPECT_NEAR(sol->values[0] + sol->values[1], 3.0, 1e-7);
}

TEST(LpTest, VariableBoundsRespected) {
  // max x with 1 <= x <= 5.
  Model m;
  int x = m.AddContinuous(1, 5);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->values[0], 5.0, 1e-7);
  // min x -> lower bound.
  m.SetObjective(LinearExpr().Add(x, 1), false);
  sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->values[0], 1.0, 1e-7);
}

TEST(LpTest, NegativeLowerBounds) {
  // min x + y with x >= -3, y >= -2, x + y >= -4 -> obj -4.
  Model m;
  int x = m.AddContinuous(-3, kInfinity), y = m.AddContinuous(-2, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kGe, -4);
  m.SetObjective(LinearExpr().Add(x, 1).Add(y, 1), false);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, -4.0, 1e-7);
}

TEST(LpTest, DetectsInfeasible) {
  Model m;
  int x = m.AddContinuous(0, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1), Sense::kLe, 1);
  m.AddConstraint(LinearExpr().Add(x, 1), Sense::kGe, 2);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  EXPECT_TRUE(SolveLp(m).status().IsInfeasible());
}

TEST(LpTest, DetectsUnbounded) {
  Model m;
  int x = m.AddContinuous(0, kInfinity);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  EXPECT_TRUE(SolveLp(m).status().IsUnbounded());
}

TEST(LpTest, ContradictoryBoundOverride) {
  Model m;
  int x = m.AddContinuous(0, 10);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  std::vector<std::pair<double, double>> bounds = {{5.0, 2.0}};
  EXPECT_TRUE(SolveLp(m, {}, &bounds).status().IsInfeasible());
}

TEST(LpTest, DegenerateRedundantConstraints) {
  // Duplicated constraints should not break phase 1 / pivoting.
  Model m;
  int x = m.AddContinuous(0, kInfinity), y = m.AddContinuous(0, kInfinity);
  for (int i = 0; i < 4; ++i) {
    m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kLe, 2);
  }
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kEq, 2);
  m.SetObjective(LinearExpr().Add(x, 2).Add(y, 1), true);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 4.0, 1e-7);
}

TEST(LpTest, DetectsUnboundedRayThroughRows) {
  // max x + y s.t. x - y <= 1, y - x <= 1: the ray (1, 1) stays feasible.
  Model m;
  int x = m.AddContinuous(0, kInfinity), y = m.AddContinuous(0, kInfinity);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, -1), Sense::kLe, 1);
  m.AddConstraint(LinearExpr().Add(y, 1).Add(x, -1), Sense::kLe, 1);
  m.SetObjective(LinearExpr().Add(x, 1).Add(y, 1), true);
  EXPECT_TRUE(SolveLp(m).status().IsUnbounded());
  // Branch-and-bound reports the unbounded relaxation instead of searching.
  Model mi = m;
  mi.AddInteger(0, 3);
  EXPECT_TRUE(SolveMilp(mi).status().IsUnbounded());
}

TEST(LpTest, BealeCyclingExampleTerminates) {
  // Beale's LP, on which Dantzig pricing with a naive leaving rule cycles
  // forever from the degenerate all-slack start. Optimum 5/4 at x4 = x6 = 1.
  for (bool bound_as_row : {true, false}) {
    Model m;
    int x4 = m.AddContinuous(0, kInfinity), x5 = m.AddContinuous(0, kInfinity);
    int x6 = m.AddContinuous(0, bound_as_row ? kInfinity : 1.0);
    int x7 = m.AddContinuous(0, kInfinity);
    m.AddConstraint(LinearExpr().Add(x4, 0.25).Add(x5, -8).Add(x6, -1).Add(x7, 9),
                    Sense::kLe, 0);
    m.AddConstraint(LinearExpr().Add(x4, 0.5).Add(x5, -12).Add(x6, -0.5).Add(x7, 3),
                    Sense::kLe, 0);
    if (bound_as_row) m.AddConstraint(LinearExpr().Add(x6, 1), Sense::kLe, 1);
    m.SetObjective(LinearExpr().Add(x4, 0.75).Add(x5, -20).Add(x6, 0.5).Add(x7, -6), true);
    auto sol = SolveLp(m);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    EXPECT_NEAR(sol->objective, 1.25, 1e-9);
    EXPECT_LE(m.MaxViolation(sol->values), 1e-9);
  }
}

TEST(LpTest, MaxViolationMeasuresRowsBoundsAndIntegrality) {
  Model m;
  int x = m.AddContinuous(0, 2), b = m.AddBinary();
  m.AddConstraint(LinearExpr().Add(x, 1).Add(b, 1), Sense::kLe, 2);
  m.AddConstraint(LinearExpr().Add(x, 1), Sense::kEq, 1);
  m.SetObjective(LinearExpr().Add(x, 3).Add(b, 1), true);
  EXPECT_DOUBLE_EQ(m.MaxViolation(std::vector<double>{1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.Evaluate(std::vector<double>{1.0, 1.0}), 4.0);
  EXPECT_NEAR(m.MaxViolation(std::vector<double>{1.5, 1.0}), 0.5, 1e-12);   // both rows
  EXPECT_NEAR(m.MaxViolation(std::vector<double>{1.0, 0.25}), 0.25, 1e-12);  // integrality
  EXPECT_NEAR(m.MaxViolation(std::vector<double>{-0.5, 0.0}), 1.5, 1e-12);   // equality row
}

// ---------- MILP ----------

TEST(MilpTest, SimpleBinaryKnapsack) {
  // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 9 -> a=1, b=1 (w=9, v=16).
  Model m;
  int a = m.AddBinary(), b = m.AddBinary(), c = m.AddBinary();
  m.AddConstraint(LinearExpr().Add(a, 5).Add(b, 4).Add(c, 3), Sense::kLe, 9);
  m.SetObjective(LinearExpr().Add(a, 10).Add(b, 6).Add(c, 4), true);
  auto sol = SolveMilp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 16.0, 1e-6);
  EXPECT_NEAR(sol->values[0], 1.0, 1e-6);
  EXPECT_NEAR(sol->values[1], 1.0, 1e-6);
  EXPECT_NEAR(sol->values[2], 0.0, 1e-6);
  EXPECT_TRUE(sol->optimal);
}

TEST(MilpTest, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer -> x = 3.
  Model m;
  int x = m.AddInteger(0, 100);
  m.AddConstraint(LinearExpr().Add(x, 2), Sense::kLe, 7);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  auto sol = SolveMilp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 3.0, 1e-6);
}

TEST(MilpTest, InfeasibleIntegerModel) {
  // 0.4 <= x <= 0.6 with x integer has no solution.
  Model m;
  int x = m.AddInteger(0.4, 0.6);
  m.SetObjective(LinearExpr().Add(x, 1), true);
  EXPECT_TRUE(SolveMilp(m).status().IsInfeasible());
}

TEST(MilpTest, MixedIntegerContinuous) {
  // max 2x + y, x binary, 0 <= y <= 1.5, x + y <= 2 -> x=1, y=1 -> 3.
  Model m;
  int x = m.AddBinary(), y = m.AddContinuous(0, 1.5);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kLe, 2);
  m.SetObjective(LinearExpr().Add(x, 2).Add(y, 1), true);
  auto sol = SolveMilp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 3.0, 1e-6);
  EXPECT_NEAR(sol->values[0], 1.0, 1e-6);
  EXPECT_NEAR(sol->values[1], 1.0, 1e-6);
}

TEST(MilpTest, MinimizationDirection) {
  // min 3a + 2b s.t. a + b >= 1 (binaries) -> pick b, obj = 2.
  Model m;
  int a = m.AddBinary(), b = m.AddBinary();
  m.AddConstraint(LinearExpr().Add(a, 1).Add(b, 1), Sense::kGe, 1);
  m.SetObjective(LinearExpr().Add(a, 3).Add(b, 2), false);
  auto sol = SolveMilp(m);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 2.0, 1e-6);
}

TEST(MilpTest, StartSolutionIsCheckedAndKeptWhenOptimal) {
  // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 9: the optimum (1, 1, 0) as start.
  Model m;
  int a = m.AddBinary(), b = m.AddBinary(), c = m.AddBinary();
  m.AddConstraint(LinearExpr().Add(a, 5).Add(b, 4).Add(c, 3), Sense::kLe, 9);
  m.SetObjective(LinearExpr().Add(a, 10).Add(b, 6).Add(c, 4), true);
  const std::vector<double> best = {1, 1, 0};
  auto sol = SolveMilp(m, {}, best);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 16.0, 1e-9);
  EXPECT_EQ(sol->values, best);
  EXPECT_TRUE(sol->optimal);
  // A feasible but worse start is beaten.
  sol = SolveMilp(m, {}, std::vector<double>{0, 0, 1});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 16.0, 1e-9);
  // Infeasible, fractional or short starts are refused.
  EXPECT_TRUE(SolveMilp(m, {}, std::vector<double>{1, 1, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(SolveMilp(m, {}, std::vector<double>{0.5, 0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(SolveMilp(m, {}, std::vector<double>{1, 1}).status().IsInvalidArgument());
}

// Property: MILP matches brute force on random binary knapsacks.
class KnapsackPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  int n = static_cast<int>(rng.UniformInt(3, 12));
  std::vector<double> value(static_cast<size_t>(n)), weight(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    value[static_cast<size_t>(i)] = rng.Uniform(1, 20);
    weight[static_cast<size_t>(i)] = rng.Uniform(1, 10);
  }
  double cap = rng.Uniform(5, 30);

  Model m;
  LinearExpr wexpr, vexpr;
  for (int i = 0; i < n; ++i) {
    int var = m.AddBinary();
    wexpr.Add(var, weight[static_cast<size_t>(i)]);
    vexpr.Add(var, value[static_cast<size_t>(i)]);
  }
  m.AddConstraint(std::move(wexpr), Sense::kLe, cap);
  m.SetObjective(std::move(vexpr), true);
  auto sol = SolveMilp(m);
  ASSERT_TRUE(sol.ok());

  // Brute force.
  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0, v = 0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        w += weight[static_cast<size_t>(i)];
        v += value[static_cast<size_t>(i)];
      }
    }
    if (w <= cap) best = std::max(best, v);
  }
  EXPECT_NEAR(sol->objective, best, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackPropertyTest, ::testing::Range(0, 20));

// Property: random LPs — simplex objective matches the value recomputed from
// the returned solution, and all constraints are satisfied.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SolutionIsFeasibleAndConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  int nv = static_cast<int>(rng.UniformInt(2, 6));
  int nc = static_cast<int>(rng.UniformInt(1, 6));
  Model m;
  for (int v = 0; v < nv; ++v) m.AddContinuous(0, rng.Uniform(1, 10));
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int c = 0; c < nc; ++c) {
    LinearExpr e;
    std::vector<double> row(static_cast<size_t>(nv));
    for (int v = 0; v < nv; ++v) {
      row[static_cast<size_t>(v)] = rng.Uniform(0, 3);
      e.Add(v, row[static_cast<size_t>(v)]);
    }
    double b = rng.Uniform(1, 15);
    m.AddConstraint(std::move(e), Sense::kLe, b);
    rows.push_back(std::move(row));
    rhs.push_back(b);
  }
  LinearExpr obj;
  std::vector<double> c(static_cast<size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    c[static_cast<size_t>(v)] = rng.Uniform(-2, 5);
    obj.Add(v, c[static_cast<size_t>(v)]);
  }
  m.SetObjective(std::move(obj), true);

  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok());
  double recomputed = 0.0;
  for (int v = 0; v < nv; ++v) recomputed += c[static_cast<size_t>(v)] * sol->values[static_cast<size_t>(v)];
  EXPECT_NEAR(recomputed, sol->objective, 1e-6);
  for (int k = 0; k < nc; ++k) {
    double lhs = 0.0;
    for (int v = 0; v < nv; ++v) lhs += rows[static_cast<size_t>(k)][static_cast<size_t>(v)] * sol->values[static_cast<size_t>(v)];
    EXPECT_LE(lhs, rhs[static_cast<size_t>(k)] + 1e-6);
  }
  for (int v = 0; v < nv; ++v) {
    EXPECT_GE(sol->values[static_cast<size_t>(v)], -1e-9);
    EXPECT_LE(sol->values[static_cast<size_t>(v)], m.variables()[static_cast<size_t>(v)].hi + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 25));

// ---------- Oracles: exhaustive enumeration and cold re-solves ----------

double RelTol(double scale) { return 1e-9 * std::max(1.0, std::abs(scale)); }

/// Best objective over every 0/1 assignment of `binaries`, each leaf an LP
/// with those variables fixed by bounds; nullopt if every leaf is infeasible.
std::optional<double> EnumerateBinaries(const Model& m, const std::vector<int>& binaries) {
  std::vector<std::pair<double, double>> bounds;
  for (const Variable& v : m.variables()) bounds.emplace_back(v.lo, v.hi);
  std::optional<double> best;
  for (uint32_t mask = 0; mask < (1u << binaries.size()); ++mask) {
    for (size_t k = 0; k < binaries.size(); ++k) {
      const double bit = (mask >> k) & 1u;
      bounds[static_cast<size_t>(binaries[k])] = {bit, bit};
    }
    auto leaf = SolveLp(m, {}, &bounds);
    if (!leaf.ok()) {
      EXPECT_TRUE(leaf.status().IsInfeasible()) << leaf.status().ToString();
      continue;
    }
    const double obj = leaf->objective;
    if (!best || (m.maximize() ? obj > *best : obj < *best)) best = obj;
  }
  return best;
}

/// SolveMilp must prove the enumerated optimum and return a point that
/// satisfies every bound, row and integrality requirement.
void ExpectMatchesEnumeration(const Model& m, const std::vector<int>& binaries) {
  const std::optional<double> best = EnumerateBinaries(m, binaries);
  auto sol = SolveMilp(m);
  if (!best) {
    EXPECT_TRUE(sol.status().IsInfeasible()) << sol.status().ToString();
    return;
  }
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_TRUE(sol->optimal);
  EXPECT_NEAR(sol->objective, *best, RelTol(*best));
  EXPECT_NEAR(m.Evaluate(sol->values), sol->objective, RelTol(*best));
  EXPECT_LE(m.MaxViolation(sol->values), 1e-7);
}

/// Random 0/1 MILP with a few bounded continuous variables. Rows are built
/// around a random reference point, so most models are feasible, but fixing
/// the binaries leaves many leaves infeasible.
Model RandomBinaryMilp(Rng* rng, std::vector<int>* binaries) {
  Model m;
  std::vector<double> ref;
  const int nb = static_cast<int>(rng->UniformInt(2, 8));
  const int nc = static_cast<int>(rng->UniformInt(0, 3));
  binaries->clear();
  for (int i = 0; i < nb; ++i) {
    binaries->push_back(m.AddBinary());
    ref.push_back(static_cast<double>(rng->UniformInt(0, 1)));
  }
  for (int i = 0; i < nc; ++i) {
    const double hi = rng->Uniform(1, 5);
    m.AddContinuous(0, hi);
    ref.push_back(rng->Uniform(0, hi));
  }
  const int rows = static_cast<int>(rng->UniformInt(1, 5));
  for (int r = 0; r < rows; ++r) {
    LinearExpr e;
    double lhs = 0.0;
    bool has_continuous = false;
    for (int v = 0; v < nb + nc; ++v) {
      if (!rng->Bernoulli(0.6)) continue;
      const double coeff = rng->Uniform(-5, 5);
      e.Add(v, coeff);
      lhs += coeff * ref[static_cast<size_t>(v)];
      has_continuous |= v >= nb;
    }
    const int64_t kind = rng->UniformInt(0, has_continuous ? 2 : 1);
    if (kind == 0) m.AddConstraint(std::move(e), Sense::kLe, lhs + rng->Uniform(0, 2));
    if (kind == 1) m.AddConstraint(std::move(e), Sense::kGe, lhs - rng->Uniform(0, 2));
    if (kind == 2) m.AddConstraint(std::move(e), Sense::kEq, lhs);
  }
  LinearExpr obj;
  for (int v = 0; v < nb + nc; ++v) obj.Add(v, rng->Uniform(-10, 10));
  m.SetObjective(std::move(obj), rng->Bernoulli(0.5));
  return m;
}

TEST(SolverOracleTest, RandomBinaryMilpsMatchEnumeration) {
  Rng rng(0x0bac1e);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<int> binaries;
    const Model m = RandomBinaryMilp(&rng, &binaries);
    ExpectMatchesEnumeration(m, binaries);
  }
}

// The knapsacks that once compared best-first with depth-first search.
TEST(SolverOracleTest, KnapsacksMatchEnumeration) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 10));
    Model m;
    LinearExpr w, v;
    std::vector<int> binaries;
    for (int i = 0; i < n; ++i) {
      int var = m.AddBinary();
      binaries.push_back(var);
      w.Add(var, rng.Uniform(1, 10));
      v.Add(var, rng.Uniform(1, 20));
    }
    m.AddConstraint(std::move(w), Sense::kLe, rng.Uniform(5, 25));
    m.SetObjective(std::move(v), true);
    ExpectMatchesEnumeration(m, binaries);
  }
}

// Checkpoint-IP models with at most 10 binaries: one cut on up to 10 stages,
// two cuts on up to 5, with and without a storage cost.
TEST(SolverOracleTest, CheckpointIpModelsMatchEnumeration) {
  Rng rng(0x1c0de);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    core::IpOptions opt;
    opt.num_cuts = 1 + trial % 2;
    opt.alpha = trial % 3 == 0 ? 0.05 : 0.0;
    testing::GraphGenOptions g;
    g.min_stages = 3;
    g.max_stages = 10 / opt.num_cuts;
    const testing::JobCase c = testing::RandomJobCase(g, testing::CostGenOptions{}, &rng);
    auto m = core::BuildTempStorageModel(c.graph, c.costs, opt);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    std::vector<int> binaries;
    for (int v = 0; v < opt.num_cuts * static_cast<int>(c.graph.num_stages()); ++v) {
      ASSERT_TRUE(m->variables()[static_cast<size_t>(v)].integer);
      binaries.push_back(v);
    }
    ExpectMatchesEnumeration(*m, binaries);
  }
}

/// Tightens random bounds one at a time, re-solving `warm` in place from its
/// previous basis, and checks each result against a cold SolveLp with the
/// same bounds. Returns how many tightenings made the LP infeasible.
int CheckWarmAgainstCold(const Model& m, const std::vector<int>& integers, Rng* rng) {
  std::vector<std::pair<double, double>> bounds;
  for (const Variable& v : m.variables()) bounds.emplace_back(v.lo, v.hi);
  Simplex warm(m, bounds);
  int infeasible = 0;
  for (int step = 0; step < 12; ++step) {
    Status status = warm.Solve(LpOptions{});
    auto cold = SolveLp(m, {}, &bounds);
    EXPECT_EQ(status.code(), cold.status().code()) << "step " << step;
    if (!status.ok()) {
      infeasible += status.IsInfeasible();
      return infeasible;
    }
    if (!cold.ok()) return infeasible;
    EXPECT_NEAR(warm.objective(), cold->objective, RelTol(cold->objective)) << "step " << step;
    std::vector<double> x;
    warm.Values(&x);
    for (size_t v = 0; v < x.size(); ++v) {
      EXPECT_GE(x[v], bounds[v].first - 1e-9);
      EXPECT_LE(x[v], bounds[v].second + 1e-9);
    }
    // Tighten one bound the way branching does: a fractional integer to
    // floor/ceil, otherwise a random cut into the variable's range.
    const int var = integers.empty() || rng->Bernoulli(0.3)
                        ? static_cast<int>(rng->UniformInt(0, static_cast<int64_t>(x.size()) - 1))
                        : integers[static_cast<size_t>(
                              rng->UniformInt(0, static_cast<int64_t>(integers.size()) - 1))];
    auto& [lo, hi] = bounds[static_cast<size_t>(var)];
    const double value = x[static_cast<size_t>(var)];
    const double top = std::isfinite(hi) ? hi : value + 1.0;
    if (rng->Bernoulli(0.5)) {
      hi = std::max(lo, std::floor(value - rng->Uniform(0, 0.5 * (value - lo))));
    } else {
      lo = std::min(top, std::ceil(value + rng->Uniform(0, 0.5 * (top - value))));
      hi = std::max(lo, hi);
    }
    warm.SetBounds(var, lo, hi);
  }
  return infeasible;
}

TEST(SolverOracleTest, WarmResolveMatchesColdAfterEachTightening) {
  Rng rng(0x3a9);
  int infeasible = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<int> binaries;
    const Model m = RandomBinaryMilp(&rng, &binaries);
    infeasible += CheckWarmAgainstCold(m, binaries, &rng);
  }
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    core::IpOptions opt;
    opt.num_cuts = 1 + trial % 2;
    testing::GraphGenOptions g;
    g.min_stages = 3;
    g.max_stages = 8;
    const testing::JobCase c = testing::RandomJobCase(g, testing::CostGenOptions{}, &rng);
    auto m = core::BuildTempStorageModel(c.graph, c.costs, opt);
    ASSERT_TRUE(m.ok());
    std::vector<int> binaries;
    for (int v = 0; v < opt.num_cuts * static_cast<int>(c.graph.num_stages()); ++v) {
      binaries.push_back(v);
    }
    infeasible += CheckWarmAgainstCold(*m, binaries, &rng);
  }
  // The sequences must reach infeasible children, or that path went untested.
  EXPECT_GT(infeasible, 0);
}

TEST(SolverOracleTest, InfeasibleChildIsDetectedWarm) {
  // max x + y, x + y >= 1.5 over [0, 1]^2: fixing x = 0 leaves y <= 1.
  Model m;
  int x = m.AddContinuous(0, 1), y = m.AddContinuous(0, 1);
  m.AddConstraint(LinearExpr().Add(x, 1).Add(y, 1), Sense::kGe, 1.5);
  m.SetObjective(LinearExpr().Add(x, 1).Add(y, 1), true);
  std::vector<std::pair<double, double>> bounds = {{0, 1}, {0, 1}};
  Simplex lp(m, bounds);
  ASSERT_TRUE(lp.Solve(LpOptions{}).ok());
  EXPECT_NEAR(lp.objective(), 2.0, 1e-12);
  lp.SetBounds(x, 0, 0);
  EXPECT_TRUE(lp.Solve(LpOptions{}).IsInfeasible());
  bounds[0] = {0, 0};
  EXPECT_TRUE(SolveLp(m, {}, &bounds).status().IsInfeasible());
  // Relaxing again recovers from the infeasible basis.
  lp.SetBounds(x, 0.75, 1);
  ASSERT_TRUE(lp.Solve(LpOptions{}).ok());
  EXPECT_NEAR(lp.objective(), 2.0, 1e-12);
}

}  // namespace
}  // namespace phoebe::solver
