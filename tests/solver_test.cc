// Tests for the LP/MILP solver substrate: simplex on known problems,
// branch-and-bound against brute force on random 0/1 knapsacks, and model
// validation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "solver/milp.h"
#include "solver/model.h"
#include "solver/simplex.h"

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

TEST(NodeSelectionTest, BestFirstMatchesDepthFirstOptimum) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 10));
    Model m;
    LinearExpr w, v;
    for (int i = 0; i < n; ++i) {
      int var = m.AddBinary();
      w.Add(var, rng.Uniform(1, 10));
      v.Add(var, rng.Uniform(1, 20));
    }
    m.AddConstraint(std::move(w), Sense::kLe, rng.Uniform(5, 25));
    m.SetObjective(std::move(v), true);

    MilpOptions dfs;
    MilpOptions bfs;
    bfs.node_selection = NodeSelection::kBestFirst;
    auto a = SolveMilp(m, dfs);
    auto b = SolveMilp(m, bfs);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->objective, b->objective, 1e-6);
    EXPECT_TRUE(a->optimal);
    EXPECT_TRUE(b->optimal);
  }
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

}  // namespace
}  // namespace phoebe::solver
