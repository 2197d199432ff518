// Serialization round-trip tests: ML models, historic statistics, stage cost
// predictors, the TTL estimator, and the whole-pipeline bundle.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "core/pipeline.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "telemetry/repository.h"
#include "testing/scratch_dir.h"
#include "workload/generator.h"

namespace phoebe {
namespace {

ml::Dataset ToyData(size_t n, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset ds;
  ds.x = ml::FeatureMatrix({"a", "b"});
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
    ds.x.AddRow(std::vector<double>{a, b});
    ds.y.push_back(2 * a - b + rng.Normal(0, 0.05));
  }
  return ds;
}

TEST(RidgeSerializationTest, RoundTrip) {
  ml::Dataset ds = ToyData(300, 1);
  ml::RidgeRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  auto restored = ml::RidgeRegressor::FromText(model.ToText());
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(model.Predict(ds.x.Row(i)), restored->Predict(ds.x.Row(i)));
  }
}

TEST(RidgeSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(ml::RidgeRegressor::FromText("").ok());
  EXPECT_FALSE(ml::RidgeRegressor::FromText("gbdt 1 2 3").ok());
  EXPECT_FALSE(ml::RidgeRegressor::FromText("ridge 3 0.5\nw 1\n").ok());  // truncated
  // A number field that is not a number is an error, never a silent 0.
  EXPECT_FALSE(ml::RidgeRegressor::FromText("ridge 1 abc\nw 1\n").ok());
  EXPECT_FALSE(ml::RidgeRegressor::FromText("ridge 1 0.5\nw xyz\n").ok());
}

TEST(MlpSerializationTest, RoundTrip) {
  ml::Dataset ds = ToyData(300, 2);
  ml::MlpParams p;
  p.hidden = {8, 4};
  p.epochs = 5;
  ml::MlpRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  auto restored = ml::MlpRegressor::FromText(model.ToText());
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(model.Predict(ds.x.Row(i)), restored->Predict(ds.x.Row(i)));
  }
}

TEST(MlpSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(ml::MlpRegressor::FromText("").ok());
  EXPECT_FALSE(ml::MlpRegressor::FromText("mlp 2 1 0 1\nnorm 0 1\n").ok());
  // Garbage in the header's target mean, a norm, a weight.
  EXPECT_FALSE(ml::MlpRegressor::FromText("mlp 1 0 abc 1\nnorm 0 1\n").ok());
  EXPECT_FALSE(ml::MlpRegressor::FromText("mlp 1 0 0 1\nnorm 0 nan\n").ok());
  EXPECT_FALSE(
      ml::MlpRegressor::FromText("mlp 1 1 0 1\nnorm 0 1\nlayer 1 1\nxyz\n0\n").ok());
}

class CorePersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 15;
    cfg.seed = 3;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 4; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new core::PhoebePipeline();
    pipeline_->Train(*repo_, 0, 3).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
  }
  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static core::PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* CorePersistenceTest::gen_ = nullptr;
telemetry::WorkloadRepository* CorePersistenceTest::repo_ = nullptr;
core::PhoebePipeline* CorePersistenceTest::pipeline_ = nullptr;

TEST_F(CorePersistenceTest, HistoricStatsRoundTrip) {
  auto stats = repo_->StatsBefore(3);
  auto restored = telemetry::HistoricStats::FromText(stats.ToText());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_observations(), stats.total_observations());
  const auto& job = repo_->Day(0).front();
  int type = job.graph.stage(0).stage_type;
  auto a = stats.Get(job.template_id, type);
  auto b = restored->Get(job.template_id, type);
  EXPECT_DOUBLE_EQ(a.avg_exclusive_time, b.avg_exclusive_time);
  EXPECT_DOUBLE_EQ(a.avg_output_bytes, b.avg_output_bytes);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(restored->HasExact(job.template_id, type),
            stats.HasExact(job.template_id, type));
}

TEST_F(CorePersistenceTest, HistoricStatsRejectsGarbage) {
  EXPECT_FALSE(telemetry::HistoricStats::FromText("").ok());
  EXPECT_FALSE(telemetry::HistoricStats::FromText("historic_stats 1 0\n").ok());
  EXPECT_FALSE(
      telemetry::HistoricStats::FromText("historic_stats 0 0\nglobal abc 1 2 3\n").ok());
}

TEST_F(CorePersistenceTest, PredictorRoundTrip) {
  auto stats = repo_->StatsBefore(3);
  std::string text = pipeline_->exec_predictor().ToText();

  core::StageCostPredictor restored(core::PhoebePipeline::DefaultConfig().exec_predictor,
                                    core::Target::kExecSeconds);
  ASSERT_TRUE(restored.LoadFromText(text).ok());
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.num_type_models(), pipeline_->exec_predictor().num_type_models());
  for (const auto& job : repo_->Day(3)) {
    auto a = pipeline_->exec_predictor().PredictJob(job, stats);
    auto b = restored.PredictJob(job, stats);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST_F(CorePersistenceTest, PredictorRejectsMismatchedTarget) {
  std::string text = pipeline_->exec_predictor().ToText();
  core::StageCostPredictor wrong(core::PhoebePipeline::DefaultConfig().size_predictor,
                                 core::Target::kOutputBytes);
  EXPECT_FALSE(wrong.LoadFromText(text).ok());
}

TEST_F(CorePersistenceTest, PredictorRejectsGarbageCalibration) {
  // The header's last token is the general model's calibration factor.
  std::string text = pipeline_->exec_predictor().ToText();
  const size_t eol = text.find('\n');
  const size_t last = text.rfind(' ', eol);
  ASSERT_NE(last, std::string::npos);
  text.replace(last + 1, eol - last - 1, "abc");
  core::StageCostPredictor restored(core::PhoebePipeline::DefaultConfig().exec_predictor,
                                    core::Target::kExecSeconds);
  EXPECT_FALSE(restored.LoadFromText(text).ok());
}

TEST_F(CorePersistenceTest, TtlEstimatorRoundTrip) {
  std::string text = pipeline_->ttl_estimator().ToText();
  core::TtlEstimator restored;
  ASSERT_TRUE(restored.LoadFromText(text).ok());
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.num_type_models(), pipeline_->ttl_estimator().num_type_models());

  auto stats = repo_->StatsBefore(3);
  const auto& job = repo_->Day(3).front();
  auto exec = pipeline_->exec_predictor().PredictJob(job, stats);
  auto sim = core::SimulateSchedule(job.graph, exec);
  ASSERT_TRUE(sim.ok());
  auto a = pipeline_->ttl_estimator().Predict(job, *sim);
  auto b = restored.Predict(job, *sim);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(CorePersistenceTest, PipelineSaveLoadRoundTrip) {
  const phoebe::testing::ScratchDir scratch;
  const std::string path = scratch.File("persist_test.phoebe");
  ASSERT_TRUE(pipeline_->SaveBundle(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));

  core::PhoebePipeline loaded;
  ASSERT_TRUE(loaded.LoadBundle(path).ok());
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.bundle()->checksum(), pipeline_->bundle()->checksum());

  // Decisions from the loaded pipeline must be identical.
  for (const auto& job : repo_->Day(3)) {
    if (job.graph.num_stages() < 2) continue;
    auto a = pipeline_->engine().DecideJob(job, pipeline_->inference_stats(), {});
    auto b = loaded.engine().DecideJob(job, loaded.inference_stats(), {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->combined.cut.before_cut, b->combined.cut.before_cut);
    EXPECT_DOUBLE_EQ(a->combined.objective, b->combined.objective);
  }
}

TEST_F(CorePersistenceTest, SaveUntrainedFails) {
  const phoebe::testing::ScratchDir scratch;
  const std::string path = scratch.File("should_not_exist.phoebe");
  core::PhoebePipeline fresh;
  EXPECT_FALSE(fresh.SaveBundle(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(CorePersistenceTest, LoadBundleFromMissingFileFails) {
  const phoebe::testing::ScratchDir scratch;
  core::PhoebePipeline fresh;
  EXPECT_FALSE(fresh.LoadBundle(scratch.File("definitely_missing.phoebe")).ok());
  EXPECT_FALSE(fresh.trained());
}

}  // namespace
}  // namespace phoebe
