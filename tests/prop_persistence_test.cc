// Persistence property suite: every persistable artifact must round-trip
// Save -> Load -> predict bit-equal, on randomized models and workloads —
// ML regressors (ridge / GBDT / MLP), historic statistics, the stage cost
// predictors and TTL estimator, the whole-pipeline bundle, and the graph /
// trace text formats.
#include <gtest/gtest.h>


#include "common/rng.h"
#include "common/strings.h"
#include "core/pipeline.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "telemetry/repository.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/property.h"
#include "testing/scratch_dir.h"
#include "workload/generator.h"

namespace phoebe::testing {
namespace {

ml::Dataset RandomDataset(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t j = 0; j < cols; ++j) names.push_back("f" + std::to_string(j));
  ml::Dataset ds;
  ds.x = ml::FeatureMatrix(names);
  std::vector<double> w(cols);
  for (double& v : w) v = rng.Uniform(-3.0, 3.0);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(cols);
    double y = rng.Normal(0.0, 0.05);
    for (size_t j = 0; j < cols; ++j) {
      row[j] = rng.Uniform(-2.0, 2.0);
      y += w[j] * row[j] + 0.3 * row[j] * row[j];
    }
    ds.x.AddRow(row);
    ds.y.push_back(y);
  }
  return ds;
}

/// Save -> Load -> predict bit-equal, plus text-stability (serializing the
/// restored model reproduces the byte-identical blob).
template <typename Model>
Status CheckModelRoundTrip(const Model& model, const ml::Dataset& probe) {
  std::string text = model.ToText();
  auto restored = Model::FromText(text);
  if (!restored.ok()) {
    return Status::Internal("FromText failed: " + restored.status().ToString());
  }
  for (size_t i = 0; i < probe.x.num_rows(); ++i) {
    double a = model.Predict(probe.x.Row(i));
    double b = restored->Predict(probe.x.Row(i));
    if (a != b) {
      return Status::Internal(
          StrFormat("prediction differs on row %zu: %.17g vs %.17g", i, a, b));
    }
  }
  if (restored->ToText() != text) {
    return Status::Internal("serialization is not a fixpoint after one round-trip");
  }
  return Status::OK();
}

TEST(PropPersistenceTest, RidgeRoundTripsBitEqualAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ml::Dataset ds = RandomDataset(150, 1 + seed % 5, seed);
    ml::RidgeRegressor model;
    ASSERT_TRUE(model.Fit(ds).ok());
    EXPECT_TRUE(CheckModelRoundTrip(model, ds).ok()) << "seed " << seed;
  }
}

TEST(PropPersistenceTest, GbdtRoundTripsBitEqualAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ml::Dataset ds = RandomDataset(300, 3, seed * 31);
    ml::GbdtParams p;
    p.num_trees = 25;
    p.num_leaves = 7;
    p.min_data_in_leaf = 10;
    ml::GbdtRegressor model(p);
    ASSERT_TRUE(model.Fit(ds).ok());
    auto st = CheckModelRoundTrip(model, ds);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(PropPersistenceTest, MlpRoundTripsBitEqualAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ml::Dataset ds = RandomDataset(200, 4, seed * 97);
    ml::MlpParams p;
    p.hidden = {8, 4};
    p.epochs = 4;
    ml::MlpRegressor model(p);
    ASSERT_TRUE(model.Fit(ds).ok());
    auto st = CheckModelRoundTrip(model, ds);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(PropPersistenceTest, HistoricStatsRoundTripAcrossRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    telemetry::WorkloadRepository repo;
    workload::WorkloadConfig cfg;
    cfg.num_templates = 8;
    cfg.seed = seed;
    workload::WorkloadGenerator gen(cfg);
    for (int d = 0; d < 3; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();
    auto stats = repo.StatsBefore(3);
    auto restored = telemetry::HistoricStats::FromText(stats.ToText());
    ASSERT_TRUE(restored.ok()) << "seed " << seed;
    EXPECT_EQ(restored->total_observations(), stats.total_observations());
    EXPECT_EQ(restored->ToText(), stats.ToText()) << "seed " << seed;
  }
}

TEST(PropPersistenceTest, GraphTextRoundTripsOnRandomDags) {
  PropertyOptions opt;
  opt.num_cases = 300;
  opt.seed = 0x6a6f;
  opt.graph.max_stages = 60;
  auto report = CheckProperty(
      opt, [](const JobCase& c) { return CheckGraphRoundTrip(c.graph); });
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.cases_run, testing::ScaledCaseCount(300));
}

TEST(PropPersistenceTest, TraceRoundTripsOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto jobs = RandomTrace(/*num_templates=*/4, /*days=*/2, seed * 13);
    auto st = CheckTraceRoundTrip(jobs);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

/// Trained-pipeline fixture shared by the heavier round-trip checks.
class PipelinePersistenceProperty : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 12;
    cfg.seed = 41;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 5; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new core::PhoebePipeline();
    pipeline_->Train(*repo_, 0, 4).Check();
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

workload::WorkloadGenerator* PipelinePersistenceProperty::gen_ = nullptr;
telemetry::WorkloadRepository* PipelinePersistenceProperty::repo_ = nullptr;
core::PhoebePipeline* PipelinePersistenceProperty::pipeline_ = nullptr;

TEST_F(PipelinePersistenceProperty, PredictorsSerializeToAFixpoint) {
  std::string exec_text = pipeline_->exec_predictor().ToText();
  core::StageCostPredictor exec(core::PhoebePipeline::DefaultConfig().exec_predictor,
                                core::Target::kExecSeconds);
  ASSERT_TRUE(exec.LoadFromText(exec_text).ok());
  EXPECT_EQ(exec.ToText(), exec_text);

  std::string size_text = pipeline_->size_predictor().ToText();
  core::StageCostPredictor size(core::PhoebePipeline::DefaultConfig().size_predictor,
                                core::Target::kOutputBytes);
  ASSERT_TRUE(size.LoadFromText(size_text).ok());
  EXPECT_EQ(size.ToText(), size_text);

  std::string ttl_text = pipeline_->ttl_estimator().ToText();
  core::TtlEstimator ttl;
  ASSERT_TRUE(ttl.LoadFromText(ttl_text).ok());
  EXPECT_EQ(ttl.ToText(), ttl_text);
}

TEST_F(PipelinePersistenceProperty, LoadedPipelinePredictsBitEqualOnUnseenDays) {
  core::PhoebePipeline loaded;
  {
    const phoebe::testing::ScratchDir scratch;
    const std::string path = scratch.File("prop_persist.phoebe");
    ASSERT_TRUE(pipeline_->SaveBundle(path).ok());
    ASSERT_TRUE(loaded.LoadBundle(path).ok());
  }

  // Probe on a day neither pipeline ever saw: predictions, costs, and
  // decisions must be bit-identical for every cost source.
  auto stats = repo_->StatsBefore(5);
  for (const auto& job : gen_->GenerateDay(5)) {
    auto a_exec = pipeline_->exec_predictor().PredictJob(job, stats);
    auto b_exec = loaded.exec_predictor().PredictJob(job, stats);
    ASSERT_EQ(a_exec, b_exec);
    for (auto source : {core::CostSource::kMlSimulator, core::CostSource::kMlStacked}) {
      auto a_costs = pipeline_->engine().BuildCosts(job, source, stats);
      auto b_costs = loaded.engine().BuildCosts(job, source, stats);
      ASSERT_TRUE(a_costs.ok());
      ASSERT_TRUE(b_costs.ok());
      ASSERT_EQ(a_costs->ttl, b_costs->ttl);
      ASSERT_EQ(a_costs->output_bytes, b_costs->output_bytes);
    }
    if (job.graph.num_stages() < 2) continue;
    auto a = pipeline_->engine().DecideJob(job, pipeline_->inference_stats(), {});
    auto b = loaded.engine().DecideJob(job, loaded.inference_stats(), {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->combined.cut.before_cut, b->combined.cut.before_cut);
    EXPECT_EQ(a->combined.objective, b->combined.objective);
  }
}

}  // namespace
}  // namespace phoebe::testing
