// End-to-end pipeline tests: training, prediction quality on a held-out day,
// cost-source construction, decisions, and the back-tester's approach
// ordering (the qualitative shape of Figures 12 and 14).
#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

/// Shared fixture: one small workload + trained pipeline for all tests
/// (training is the expensive part; reuse it).
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 25;
    cfg.seed = 99;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 5; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new PhoebePipeline();
    pipeline_->Train(*repo_, 0, 4).Check();  // day 4 held out
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
    pipeline_ = nullptr;
    repo_ = nullptr;
    gen_ = nullptr;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* PipelineFixture::gen_ = nullptr;
telemetry::WorkloadRepository* PipelineFixture::repo_ = nullptr;
PhoebePipeline* PipelineFixture::pipeline_ = nullptr;

TEST_F(PipelineFixture, TrainsAllModels) {
  EXPECT_TRUE(pipeline_->trained());
  EXPECT_GT(pipeline_->exec_predictor().num_type_models(), 10u);
  EXPECT_GT(pipeline_->size_predictor().num_type_models(), 10u);
  EXPECT_GT(pipeline_->ttl_estimator().num_type_models(), 10u);
  EXPECT_GT(pipeline_->inference_stats().total_observations(), 0);
}

TEST_F(PipelineFixture, TrainRejectsMissingDay) {
  PhoebePipeline p;
  EXPECT_TRUE(p.Train(*repo_, 0, 99).IsNotFound());
  EXPECT_FALSE(p.Train(*repo_, 0, 0).ok());
}

TEST_F(PipelineFixture, HeldOutAccuracyIsStrong) {
  const auto& test_jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  std::vector<double> et, ep, ot, op;
  for (const auto& job : test_jobs) {
    auto exec = pipeline_->exec_predictor().PredictJob(job, stats);
    auto out = pipeline_->size_predictor().PredictJob(job, stats);
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      et.push_back(job.truth[i].exec_seconds);
      ep.push_back(exec[i]);
      ot.push_back(job.truth[i].output_bytes);
      op.push_back(out[i]);
    }
  }
  // Paper reports R2 = 0.85 (exec) and 0.91 (size); require the same ballpark.
  EXPECT_GT(RSquared(et, ep), 0.6);
  EXPECT_GT(RSquared(ot, op), 0.7);
}

TEST_F(PipelineFixture, MlBeatsRawOptimizerEstimates) {
  const auto& test_jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  std::vector<double> truth, ml, raw;
  for (const auto& job : test_jobs) {
    auto exec = pipeline_->exec_predictor().PredictJob(job, stats);
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      truth.push_back(job.truth[i].exec_seconds);
      ml.push_back(exec[i]);
      raw.push_back(job.est[i].est_exclusive_cost);
    }
  }
  EXPECT_GT(RSquared(truth, ml), RSquared(truth, raw));
}

TEST_F(PipelineFixture, StackedTtlBeatsRawSimulatorTtl) {
  const auto& test_jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  std::vector<double> truth, stacked, raw;
  for (const auto& job : test_jobs) {
    auto c_raw = pipeline_->engine().BuildCosts(job, CostSource::kMlSimulator, stats);
    auto c_stk = pipeline_->engine().BuildCosts(job, CostSource::kMlStacked, stats);
    ASSERT_TRUE(c_raw.ok());
    ASSERT_TRUE(c_stk.ok());
    for (size_t i = 0; i < job.graph.num_stages(); ++i) {
      truth.push_back(job.truth[i].ttl);
      raw.push_back(c_raw->ttl[i]);
      stacked.push_back(c_stk->ttl[i]);
    }
  }
  EXPECT_GT(RSquared(truth, stacked), RSquared(truth, raw));
}

TEST_F(PipelineFixture, BuildCostsShapesAndSemantics) {
  const auto& job = repo_->Day(4).front();
  for (CostSource src :
       {CostSource::kTruth, CostSource::kOptimizerEstimates, CostSource::kConstant,
        CostSource::kMlSimulator, CostSource::kMlStacked}) {
    auto costs = pipeline_->engine().BuildCosts(job, src);
    ASSERT_TRUE(costs.ok());
    EXPECT_TRUE(costs->Validate(job.graph).ok());
  }
  // Truth source must echo ground truth exactly.
  auto truth = pipeline_->engine().BuildCosts(job, CostSource::kTruth);
  ASSERT_TRUE(truth.ok());
  for (size_t i = 0; i < job.graph.num_stages(); ++i) {
    EXPECT_DOUBLE_EQ(truth->ttl[i], job.truth[i].ttl);
    EXPECT_DOUBLE_EQ(truth->output_bytes[i], job.truth[i].output_bytes);
  }
  // Constant source: all outputs equal.
  auto cc = pipeline_->engine().BuildCosts(job, CostSource::kConstant);
  ASSERT_TRUE(cc.ok());
  for (double o : cc->output_bytes) EXPECT_DOUBLE_EQ(o, 1.0);
}

TEST_F(PipelineFixture, UntrainedPipelineRejectsMlSources) {
  PhoebePipeline fresh;
  const auto& job = repo_->Day(4).front();
  EXPECT_FALSE(fresh.engine().BuildCosts(job, CostSource::kMlStacked).ok());
  // But truth/constant sources work untrained.
  EXPECT_TRUE(fresh.engine().BuildCosts(job, CostSource::kTruth).ok());
  EXPECT_TRUE(fresh.engine().BuildCosts(job, CostSource::kConstant).ok());
}

TEST_F(PipelineFixture, DecideJobProducesValidCut) {
  const auto& jobs = repo_->Day(4);
  const workload::JobInstance* big = nullptr;
  for (const auto& j : jobs) {
    if (!big || j.graph.num_stages() > big->graph.num_stages()) big = &j;
  }
  for (Objective obj : {Objective::kTempStorage, Objective::kRecovery}) {
    auto d = pipeline_->engine().DecideJob(*big, pipeline_->inference_stats(), {obj});
    ASSERT_TRUE(d.ok());
    if (!d->combined.cut.empty()) {
      EXPECT_EQ(d->combined.cut.before_cut.size(), big->graph.num_stages());
    }
  }
}

TEST_F(PipelineFixture, ApproachOrderingMatchesPaperShape) {
  // Figure 12's qualitative ordering: Random < OML <= OMLS <= Optimal.
  const auto& jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  BackTester tester(&pipeline_->engine(), /*mtbf_seconds=*/12 * 3600.0);
  auto result = tester.EvaluateTempStorage(jobs, stats);
  ASSERT_TRUE(result.ok());
  double random = (*result)[Approach::kRandom].mean();
  double ml = (*result)[Approach::kMl].mean();
  double mls = (*result)[Approach::kMlStacked].mean();
  double optimal = (*result)[Approach::kOptimal].mean();
  EXPECT_GT(ml, random);
  EXPECT_GT(optimal, random);
  EXPECT_LE(mls, optimal + 1e-9);
  EXPECT_LE(ml, optimal + 1e-9);
  // Optimal realizes a strong majority of the theoretical maximum.
  EXPECT_GT(optimal, 0.5);
  // Every mean is a fraction.
  for (Approach a : AllApproaches()) {
    EXPECT_GE((*result)[a].mean(), 0.0);
    EXPECT_LE((*result)[a].mean(), 1.0);
  }
}

TEST_F(PipelineFixture, RecoveryOrderingMatchesPaperShape) {
  // Figure 14: Random < Mid-Point < Phoebe <= Optimal.
  const auto& jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  BackTester tester(&pipeline_->engine(), 12 * 3600.0);
  auto result = tester.EvaluateRecovery(
      jobs, stats,
      {Approach::kRandom, Approach::kMidPoint, Approach::kMlStacked,
       Approach::kOptimal});
  ASSERT_TRUE(result.ok());
  double random = (*result)[Approach::kRandom].mean();
  double phoebe = (*result)[Approach::kMlStacked].mean();
  double optimal = (*result)[Approach::kOptimal].mean();
  EXPECT_GT(phoebe, random);
  EXPECT_LE(phoebe, optimal + 1e-9);
  EXPECT_GT(optimal, 0.3);
}

TEST_F(PipelineFixture, RealizedTempSavingBounds) {
  const auto& jobs = repo_->Day(4);
  auto stats = repo_->StatsBefore(4);
  BackTester tester(&pipeline_->engine(), 12 * 3600.0);
  for (const auto& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    auto cut = tester.ChooseCut(job, Approach::kMlStacked, Objective::kTempStorage,
                                stats);
    ASSERT_TRUE(cut.ok());
    double s = RealizedTempSaving(job, cut->cut);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  // Empty cut saves nothing.
  EXPECT_DOUBLE_EQ(RealizedTempSaving(jobs.front(), cluster::CutSet{}), 0.0);
}

TEST_F(PipelineFixture, ApproachNamesAreUniqueAndComplete) {
  std::set<std::string> names;
  for (Approach a : AllApproaches()) names.insert(ApproachName(a));
  EXPECT_EQ(names.size(), AllApproaches().size());
  EXPECT_EQ(AllApproaches().size(), 7u);
}

}  // namespace
}  // namespace phoebe::core
