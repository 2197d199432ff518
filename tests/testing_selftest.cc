// Self-test of the property-based testing library: generator validity,
// deterministic replay, oracle behaviour, and shrinker minimality.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/simulator.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/property.h"
#include "workload/trace.h"

namespace phoebe::testing {
namespace {

TEST(GeneratorTest, RandomGraphsAreValidAndInRange) {
  GraphGenOptions opt;
  opt.min_stages = 3;
  opt.max_stages = 40;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    dag::JobGraph g = RandomGraph(opt, &rng);
    ASSERT_TRUE(g.Validate().ok());
    EXPECT_GE(g.num_stages(), 3u);
    EXPECT_LE(g.num_stages(), 40u);
    EXPECT_TRUE(g.TopologicalOrder().ok());
  }
}

TEST(GeneratorTest, LayeredGraphsRespectDepthBound) {
  GraphGenOptions opt;
  opt.min_stages = 8;
  opt.max_stages = 30;
  opt.num_layers = 4;
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    dag::JobGraph g = RandomGraph(opt, &rng);
    ASSERT_TRUE(g.Validate().ok());
    auto depth = g.CriticalPathLength();
    ASSERT_TRUE(depth.ok());
    EXPECT_LE(*depth, 4);  // edges only between consecutive layers
  }
}

TEST(GeneratorTest, RandomCostsAreConsistentWithAlgorithm1) {
  GraphGenOptions gopt;
  CostGenOptions copt;
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    JobCase c = RandomJobCase(gopt, copt, &rng);
    ASSERT_TRUE(c.costs.Validate(c.graph).ok());
    // The schedule columns were produced by SimulateSchedule, so re-deriving
    // exec from end - start and re-checking the oracle must pass.
    core::SimulatedSchedule sched;
    sched.start = c.costs.tfs;
    sched.end = c.costs.end_time;
    for (double e : sched.end) sched.job_end = std::max(sched.job_end, e);
    std::vector<double> exec(c.graph.num_stages());
    for (size_t u = 0; u < exec.size(); ++u) {
      exec[u] = c.costs.end_time[u] - c.costs.tfs[u];
    }
    EXPECT_TRUE(CheckScheduleSane(c.graph, exec, sched).ok());
  }
}

TEST(GeneratorTest, SameSeedRegeneratesSameCase) {
  GraphGenOptions gopt;
  CostGenOptions copt;
  Rng a(99), b(99);
  JobCase x = RandomJobCase(gopt, copt, &a);
  JobCase y = RandomJobCase(gopt, copt, &b);
  EXPECT_EQ(x.graph.ToText(), y.graph.ToText());
  EXPECT_EQ(x.costs.output_bytes, y.costs.output_bytes);
  EXPECT_EQ(x.costs.end_time, y.costs.end_time);
}

TEST(GeneratorTest, RandomTraceIsDeterministicAndNonEmpty) {
  auto a = RandomTrace(5, 2, 7);
  auto b = RandomTrace(5, 2, 7);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.front().job_name, b.front().job_name);
  EXPECT_EQ(workload::SerializeTrace(a), workload::SerializeTrace(b));
}

TEST(PropertyTest, PassingPropertyRunsAllCases) {
  PropertyOptions opt;
  opt.num_cases = 50;
  auto report = CheckProperty(opt, [](const JobCase& c) {
    return c.graph.Validate();  // generators only emit valid graphs
  });
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, ScaledCaseCount(50));
}

TEST(PropertyTest, CaseCountMultiplierScalesRuns) {
  // The multiplier is read from PHOEBE_NUM_CASES once per process; whatever
  // it is, ScaledCaseCount must be consistent with the runner.
  EXPECT_GE(CaseCountMultiplier(), 1);
  EXPECT_EQ(ScaledCaseCount(7), 7 * CaseCountMultiplier());
  PropertyOptions opt;
  opt.num_cases = 3;
  auto report = CheckProperty(opt, [](const JobCase&) { return Status::OK(); });
  EXPECT_EQ(report.cases_run, ScaledCaseCount(3));
}

TEST(PropertyTest, VacuousCasesAreCountedNotFailed) {
  PropertyOptions opt;
  opt.num_cases = 60;
  int expected = 0;
  for (int i = 0; i < ScaledCaseCount(opt.num_cases); ++i) {
    Rng rng(opt.seed + static_cast<uint64_t>(i));
    if (RandomJobCase(opt.graph, opt.costs, &rng).graph.num_stages() % 2 == 0) ++expected;
  }
  ASSERT_GT(expected, 0);
  ASSERT_LT(expected, ScaledCaseCount(opt.num_cases));
  auto report = CheckProperty(opt, [](const JobCase& c) {
    return c.graph.num_stages() % 2 == 0 ? VacuousCase("even stage count")
                                          : Status::OK();
  });
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, ScaledCaseCount(opt.num_cases));
  EXPECT_EQ(report.vacuous_cases, expected);
  EXPECT_TRUE(IsVacuousCase(VacuousCase("x")));
  EXPECT_FALSE(IsVacuousCase(Status::FailedPrecondition("x")));
  EXPECT_FALSE(IsVacuousCase(Status::OK()));
}

TEST(PropertyTest, ShrinkerTreatsVacuousCandidatesAsPassing) {
  // Fails on >= 6 stages, is vacuous on 4-5: the shrinker must stop at 6
  // rather than follow vacuous verdicts down to a non-failing case.
  PropertyOptions opt;
  opt.num_cases = 100;
  opt.graph.min_stages = 8;
  auto prop = [](const JobCase& c) -> Status {
    const size_t n = c.graph.num_stages();
    if (n >= 6) return Status::Internal("too many stages");
    if (n >= 4) return VacuousCase("mid-sized");
    return Status::OK();
  };
  auto report = CheckProperty(opt, prop);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.shrunk_stages, 6u);
  EXPECT_FALSE(IsVacuousCase(report.failure));
}

TEST(PropertyTest, FailingPropertyIsDeterministic) {
  PropertyOptions opt;
  opt.num_cases = 100;
  opt.shrink = false;
  auto prop = [](const JobCase& c) {
    return c.graph.num_stages() < 10
               ? Status::OK()
               : Status::Internal("graph too large");
  };
  auto a = CheckProperty(opt, prop);
  auto b = CheckProperty(opt, prop);
  ASSERT_FALSE(a.ok);
  EXPECT_EQ(a.failed_case, b.failed_case);
  EXPECT_EQ(a.failed_seed, b.failed_seed);
  // The reported seed replays the exact counterexample.
  Rng rng(a.failed_seed);
  JobCase replay = RandomJobCase(opt.graph, opt.costs, &rng);
  EXPECT_EQ(replay.graph.ToText(), a.counterexample.graph.ToText());
}

TEST(ShrinkTest, RemoveStageReindexesEdgesAndCosts) {
  JobCase c;
  for (int i = 0; i < 4; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = i + 1;
    c.graph.AddStage(std::move(s));
  }
  c.graph.AddEdge(0, 1).Check();
  c.graph.AddEdge(1, 2).Check();
  c.graph.AddEdge(2, 3).Check();
  c.costs.output_bytes = {10, 20, 30, 40};
  c.costs.ttl = {3, 2, 1, 0};
  c.costs.end_time = {1, 2, 3, 4};
  c.costs.tfs = {0, 1, 2, 3};
  c.costs.num_tasks = {1, 2, 3, 4};

  JobCase r = RemoveStage(c, 1);
  ASSERT_EQ(r.graph.num_stages(), 3u);
  ASSERT_TRUE(r.graph.Validate().ok());
  EXPECT_EQ(r.graph.num_edges(), 1u);  // only 2->3, now 1->2
  EXPECT_EQ(r.graph.edges()[0], (dag::Edge{1, 2}));
  EXPECT_EQ(r.costs.output_bytes, (std::vector<double>{10, 30, 40}));
  EXPECT_EQ(r.costs.num_tasks, (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(r.costs.Validate(r.graph).ok());

  JobCase e = RemoveEdge(c, 1);
  ASSERT_EQ(e.graph.num_stages(), 4u);
  EXPECT_EQ(e.graph.num_edges(), 2u);
  EXPECT_TRUE(e.graph.Validate().ok());
}

TEST(ShrinkTest, GreedyShrinkFindsMinimalFanInWitness) {
  // Property: "no stage has fan-in >= 2". The minimal violating graph is a
  // 3-stage 2-edge diamond top; the shrinker must reduce any failing case to
  // exactly that shape (deleting stages keeps recomputing fan-ins).
  auto prop = [](const JobCase& c) -> Status {
    for (size_t u = 0; u < c.graph.num_stages(); ++u) {
      if (c.graph.upstream(static_cast<dag::StageId>(u)).size() >= 2) {
        return Status::Internal("stage with fan-in >= 2");
      }
    }
    return Status::OK();
  };
  PropertyOptions opt;
  opt.num_cases = 200;
  opt.graph.min_stages = 8;
  opt.graph.max_stages = 30;
  auto report = CheckProperty(opt, prop);
  ASSERT_FALSE(report.ok);  // fan-in >= 2 appears quickly at these sizes
  EXPECT_EQ(report.counterexample.graph.num_stages(), 3u);
  EXPECT_EQ(report.counterexample.graph.num_edges(), 2u);
  EXPECT_LE(report.shrunk_stages, report.original_stages);
  EXPECT_FALSE(prop(report.counterexample).ok());
  EXPECT_TRUE(report.counterexample.costs.Validate(report.counterexample.graph).ok());
}

TEST(OracleTest, CutOraclesRejectMalformedCuts) {
  Rng rng(5);
  GraphGenOptions gopt;
  gopt.min_stages = 4;
  gopt.max_stages = 8;
  dag::JobGraph g = RandomGraph(gopt, &rng);

  cluster::CutSet wrong_size;
  wrong_size.before_cut.assign(g.num_stages() + 1, false);
  EXPECT_FALSE(CheckCutValid(g, wrong_size, false).ok());

  cluster::CutSet all_before;
  all_before.before_cut.assign(g.num_stages(), true);
  EXPECT_FALSE(CheckCutValid(g, all_before, false).ok());

  cluster::CutSet none_before;
  none_before.before_cut.assign(g.num_stages(), false);
  EXPECT_FALSE(CheckCutValid(g, none_before, false).ok());

  cluster::CutSet empty;
  EXPECT_TRUE(CheckCutValid(g, empty, true).ok());
}

TEST(OracleTest, AncestorClosureDetectsBackwardsEdge) {
  dag::JobGraph g;
  for (int i = 0; i < 3; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    g.AddStage(std::move(s));
  }
  g.AddEdge(0, 1).Check();
  g.AddEdge(1, 2).Check();
  cluster::CutSet cut;
  cut.before_cut = {false, true, false};  // parent 0 after the cut: invalid
  EXPECT_FALSE(CheckCutValid(g, cut, true).ok());
  cut.before_cut = {true, true, false};
  EXPECT_TRUE(CheckCutValid(g, cut, true).ok());
}

TEST(OracleTest, RoundTripOraclesPassOnGeneratedData) {
  Rng rng(21);
  GraphGenOptions gopt;
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(CheckGraphRoundTrip(RandomGraph(gopt, &rng)).ok());
  }
  EXPECT_TRUE(CheckTraceRoundTrip(RandomTrace(4, 2, 33)).ok());
}

}  // namespace
}  // namespace phoebe::testing
