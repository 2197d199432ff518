// Tests for the exact IP checkpoint formulations: agreement with the
// Proposition-5.1 heuristic for single cuts, multi-cut dominance, and the
// effect of the global-storage cost factor alpha.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/checkpoint_ip.h"
#include "core/simulator.h"

namespace phoebe::core {
namespace {

struct TestJob {
  dag::JobGraph graph;
  StageCosts costs;
};

TestJob RandomJob(uint64_t seed, int min_n, int max_n) {
  Rng rng(seed);
  int n = static_cast<int>(rng.UniformInt(min_n, max_n));
  TestJob t;
  for (int i = 0; i < n; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = static_cast<int>(rng.UniformInt(1, 20));
    t.graph.AddStage(std::move(s));
  }
  for (int v = 1; v < n; ++v) {
    int k = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < k; ++j) {
      (void)t.graph.AddEdge(static_cast<dag::StageId>(rng.UniformInt(0, v - 1)),
                            static_cast<dag::StageId>(v));
    }
  }
  std::vector<double> exec(static_cast<size_t>(n));
  for (double& e : exec) e = rng.Uniform(30.0, 3600.0);
  auto sim = SimulateSchedule(t.graph, exec);
  sim.status().Check();
  t.costs.end_time = sim->end;
  t.costs.tfs = sim->start;
  t.costs.ttl.resize(static_cast<size_t>(n));
  t.costs.output_bytes.resize(static_cast<size_t>(n));
  t.costs.num_tasks.resize(static_cast<size_t>(n));
  for (int u = 0; u < n; ++u) {
    t.costs.ttl[static_cast<size_t>(u)] = sim->Ttl(static_cast<dag::StageId>(u));
    // GB-scale outputs so the scaled model has sane magnitudes.
    t.costs.output_bytes[static_cast<size_t>(u)] = rng.Uniform(0.1, 50.0) * 1e9;
    t.costs.num_tasks[static_cast<size_t>(u)] = t.graph.stage(u).num_tasks;
  }
  return t;
}

// Single-cut IP with alpha = 0 must match the heuristic optimum.
class IpHeuristicAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(IpHeuristicAgreementTest, SingleCutMatchesHeuristic) {
  TestJob t = RandomJob(static_cast<uint64_t>(GetParam()) * 97 + 13, 4, 9);
  auto heuristic = OptimizeTempStorage(t.graph, t.costs);
  ASSERT_TRUE(heuristic.ok());

  IpOptions opt;
  opt.num_cuts = 1;
  opt.alpha = 0.0;
  opt.milp.time_limit_seconds = 30.0;
  auto ip = SolveTempStorageIp(t.graph, t.costs, opt);
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_TRUE(ip->optimal);
  // Relative agreement: scaled model tolerances.
  double scale = std::max(1.0, heuristic->objective);
  EXPECT_NEAR(ip->objective, heuristic->objective, 1e-4 * scale);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpHeuristicAgreementTest, ::testing::Range(0, 8));

TEST(IpTest, MultiCutDominatesSingleCut) {
  TestJob t = RandomJob(321, 6, 9);
  IpOptions one;
  one.num_cuts = 1;
  one.milp.time_limit_seconds = 30.0;
  IpOptions two = one;
  two.num_cuts = 2;
  auto a = SolveTempStorageIp(t.graph, t.costs, one);
  auto b = SolveTempStorageIp(t.graph, t.costs, two);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->optimal);
  ASSERT_TRUE(b->optimal);
  EXPECT_GE(b->objective, a->objective - 1e-4 * std::max(1.0, a->objective));
}

TEST(IpTest, AlphaReducesGlobalStorage) {
  TestJob t = RandomJob(555, 6, 9);
  IpOptions free;
  free.alpha = 0.0;
  free.milp.time_limit_seconds = 30.0;
  IpOptions costly = free;
  costly.alpha = 1e3;  // storage extremely expensive in scaled units
  auto a = SolveTempStorageIp(t.graph, t.costs, free);
  auto b = SolveTempStorageIp(t.graph, t.costs, costly);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->global_bytes, a->global_bytes + 1.0);
}

TEST(IpTest, HugeAlphaOnConnectedGraphYieldsNoCut) {
  // With prohibitive storage cost and a connected graph (every cut persists
  // something), the empty cut is optimal.
  TestJob t;
  for (int i = 0; i < 4; ++i) {
    dag::Stage s;
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 1;
    t.graph.AddStage(std::move(s));
  }
  t.graph.AddEdge(0, 1).Check();
  t.graph.AddEdge(1, 2).Check();
  t.graph.AddEdge(2, 3).Check();
  t.costs.output_bytes = {1e9, 1e9, 1e9, 1e9};
  t.costs.ttl = {300, 200, 100, 0};
  t.costs.end_time = {10, 110, 210, 310};
  t.costs.tfs = {0, 10, 110, 210};
  t.costs.num_tasks = {1, 1, 1, 1};
  IpOptions opt;
  opt.alpha = 1e9;
  auto r = SolveTempStorageIp(t.graph, t.costs, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cuts.empty());
  EXPECT_DOUBLE_EQ(r->global_bytes, 0.0);
}

TEST(IpTest, FreeCutOnDisconnectedGraph) {
  // Two independent chains: a cut along component boundaries persists
  // nothing ("free cuts", §6.2), so even huge alpha keeps a positive
  // objective with zero global storage.
  TestJob t;
  for (int i = 0; i < 4; ++i) {
    dag::Stage s;
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 1;
    t.graph.AddStage(std::move(s));
  }
  t.graph.AddEdge(0, 1).Check();  // component A: 0 -> 1
  t.graph.AddEdge(2, 3).Check();  // component B: 2 -> 3
  // Component A finishes early (high TTL); cutting {0, 1} is free.
  t.costs.output_bytes = {5e9, 5e9, 1e9, 1e9};
  t.costs.ttl = {3600, 3300, 300, 0};
  t.costs.end_time = {300, 600, 3600, 3900};
  t.costs.tfs = {0, 300, 0, 3600};
  t.costs.num_tasks = {1, 1, 1, 1};
  IpOptions opt;
  opt.alpha = 1e6;
  auto r = SolveTempStorageIp(t.graph, t.costs, opt);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->cuts.empty());
  EXPECT_DOUBLE_EQ(r->global_bytes, 0.0);
  EXPECT_GT(r->objective, 0.0);
  // The chosen cut is exactly component A.
  EXPECT_TRUE(r->cuts[0].cut.before_cut[0]);
  EXPECT_TRUE(r->cuts[0].cut.before_cut[1]);
  EXPECT_FALSE(r->cuts[0].cut.before_cut[2]);
  EXPECT_FALSE(r->cuts[0].cut.before_cut[3]);
}

TEST(IpTest, HandValidatedTinyInstance) {
  // Chain a -> b -> c; outputs 10, 1, 1 GB; ttls 100, 50, 0 h-equivalents.
  // Best single cut: {a} with T = 10 GB * 100; {a,b} gives 11 * 50 = 550 < 1000.
  TestJob t;
  for (int i = 0; i < 3; ++i) {
    dag::Stage s;
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = 1;
    t.graph.AddStage(std::move(s));
  }
  t.graph.AddEdge(0, 1).Check();
  t.graph.AddEdge(1, 2).Check();
  t.costs.output_bytes = {10e9, 1e9, 1e9};
  t.costs.ttl = {100 * 3600.0, 50 * 3600.0, 0.0};
  t.costs.end_time = {0.0, 50 * 3600.0, 100 * 3600.0};
  t.costs.tfs = {0.0, 0.0, 50 * 3600.0};
  t.costs.num_tasks = {1, 1, 1};
  auto r = SolveTempStorageIp(t.graph, t.costs, IpOptions{});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->cuts.size(), 1u);
  EXPECT_TRUE(r->cuts[0].cut.before_cut[0]);
  EXPECT_FALSE(r->cuts[0].cut.before_cut[1]);
  EXPECT_NEAR(r->objective, 10e9 * 100 * 3600.0, 1e-3 * 10e9 * 100 * 3600.0);
  EXPECT_DOUBLE_EQ(r->global_bytes, 10e9);
}

TEST(IpTest, ReportsSearchCounters) {
  TestJob t = RandomJob(777, 4, 7);
  auto r = SolveTempStorageIp(t.graph, t.costs, IpOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->nodes, 0);
  EXPECT_GT(r->pivots, 0);
}

TEST(IpTest, RejectsBadOptions) {
  TestJob t = RandomJob(888, 4, 6);
  IpOptions opt;
  opt.num_cuts = 0;
  EXPECT_FALSE(SolveTempStorageIp(t.graph, t.costs, opt).ok());
}

}  // namespace
}  // namespace phoebe::core
