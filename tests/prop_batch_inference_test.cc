// Batched-inference property suite, pinning the two contracts the inference
// engine rests on:
//   1. Regressor::PredictBatch (PredictRowsInto over every row) is
//      *bit-equal* to the row-wise scalar Predict for every learner
//      (flattened-forest GBDT, blocked MLP, ridge), across randomized fitted
//      models and matrices — including the 0-row and 1-row edges. This is
//      what lets the one batched inference path stand in for Predict.
//   2. The fleet template cache at zero drift tolerance (quantize_bps = 0)
//      is byte-neutral: a cached RunDay produces the exact FleetDayReport of
//      an uncached one, for any thread count, because an exact-mode key
//      match proves the replayed decision equals the recomputed one.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "telemetry/repository.h"
#include "testing/property.h"
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
    double y = rng.Normal(0.0, 0.1);
    for (size_t j = 0; j < cols; ++j) {
      row[j] = rng.Uniform(-2.0, 2.0);
      y += w[j] * row[j] + 0.25 * row[j] * row[j];
    }
    ds.x.AddRow(row);
    ds.y.push_back(y);
  }
  return ds;
}

/// A probe matrix of `rows` random rows (distinct from the training data).
ml::FeatureMatrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t j = 0; j < cols; ++j) names.push_back("f" + std::to_string(j));
  ml::FeatureMatrix m(names);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(cols);
    for (double& v : row) v = rng.Uniform(-4.0, 4.0);
    m.AddRow(row);
  }
  return m;
}

/// The contract itself: PredictBatch(x)[i] == Predict(x.Row(i)), bit for bit,
/// including the 0-row and 1-row edges carved off the same matrix.
void ExpectBatchBitEqual(const ml::Regressor& model, const ml::FeatureMatrix& x) {
  std::vector<double> batch = model.PredictBatch(x);
  ASSERT_EQ(batch.size(), x.num_rows());
  for (size_t i = 0; i < x.num_rows(); ++i) {
    ASSERT_EQ(batch[i], model.Predict(x.Row(i))) << "row " << i;
  }
}

TEST(PropBatchInferenceTest, GbdtBatchMatchesScalarAcrossRandomModels) {
  const int cases = ScaledCaseCount(12);
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(c) * 17;
    Rng rng(seed);
    const size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    ml::GbdtParams p;
    p.num_trees = static_cast<int>(rng.UniformInt(1, 40));
    p.num_leaves = static_cast<int>(rng.UniformInt(2, 15));
    p.min_data_in_leaf = static_cast<int>(rng.UniformInt(5, 25));
    p.learning_rate = rng.Uniform(0.05, 0.3);
    p.subsample = rng.Bernoulli(0.5) ? 1.0 : 0.7;
    p.feature_fraction = rng.Bernoulli(0.5) ? 1.0 : 0.8;
    p.seed = seed;
    if (rng.Bernoulli(0.3)) {
      p.objective = ml::GbdtObjective::kQuantile;
      p.quantile_alpha = rng.Uniform(0.2, 0.9);
    }
    if (rng.Bernoulli(0.3)) p.early_stopping_rounds = 5;
    ml::GbdtRegressor model(p);
    ASSERT_TRUE(model.Fit(RandomDataset(250, cols, seed + 1)).ok());

    for (size_t rows : {size_t{0}, size_t{1}, size_t{63},
                        static_cast<size_t>(rng.UniformInt(2, 200))}) {
      ExpectBatchBitEqual(model, RandomMatrix(rows, cols, seed + rows + 2));
    }
  }
}

TEST(PropBatchInferenceTest, GbdtBatchMatchesScalarAfterTextRoundTrip) {
  // FromText rebuilds the flat forest too; a deserialized model must keep
  // the bit-equality contract (serving models are usually loaded, not fit).
  ml::GbdtParams p;
  p.num_trees = 20;
  p.num_leaves = 7;
  p.min_data_in_leaf = 10;
  ml::GbdtRegressor model(p);
  ASSERT_TRUE(model.Fit(RandomDataset(300, 4, 99)).ok());
  auto restored = ml::GbdtRegressor::FromText(model.ToText());
  ASSERT_TRUE(restored.ok());
  ExpectBatchBitEqual(*restored, RandomMatrix(97, 4, 100));
}

TEST(PropBatchInferenceTest, MlpBatchMatchesScalarAcrossRandomModels) {
  const int cases = ScaledCaseCount(6);
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(c) * 13;
    Rng rng(seed);
    const size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    ml::MlpParams p;
    p.hidden.clear();
    const int layers = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < layers; ++l) {
      p.hidden.push_back(static_cast<int>(rng.UniformInt(1, 12)));
    }
    p.epochs = static_cast<int>(rng.UniformInt(2, 5));
    p.seed = seed;
    ml::MlpRegressor model(p);
    ASSERT_TRUE(model.Fit(RandomDataset(150, cols, seed + 1)).ok());

    for (size_t rows : {size_t{0}, size_t{1}, size_t{31},
                        static_cast<size_t>(rng.UniformInt(2, 120))}) {
      ExpectBatchBitEqual(model, RandomMatrix(rows, cols, seed + rows + 2));
    }
  }
}

TEST(PropBatchInferenceTest, RidgeBatchMatchesScalar) {
  // Ridge's PredictRowsInto is a plain row loop — trivially equal, but the
  // test pins that the virtual dispatch path stays wired for every learner.
  ml::RidgeRegressor model;
  ASSERT_TRUE(model.Fit(RandomDataset(120, 3, 7)).ok());
  for (size_t rows : {size_t{0}, size_t{1}, size_t{50}}) {
    ExpectBatchBitEqual(model, RandomMatrix(rows, 3, rows + 8));
  }
}

// ---------------------------------------------------------------------------
// Fleet-level byte-equality: template cache at zero drift tolerance.
// ---------------------------------------------------------------------------

class BatchCacheFleetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 15;
    cfg.seed = 77;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 5; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new core::PhoebePipeline();
    pipeline_->Train(*repo_, 0, 3).Check();
    // A day with genuine recurrences at the exact-signature level: every
    // instance appears twice, so each first occurrence leads and each
    // duplicate must be served from the cache.
    day_ = new std::vector<workload::JobInstance>(repo_->Day(4));
    day_->insert(day_->end(), repo_->Day(4).begin(), repo_->Day(4).end());
    stats_ = new telemetry::HistoricStats(repo_->StatsBefore(4));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete day_;
    delete pipeline_;
    delete repo_;
    delete gen_;
  }

  static core::FleetDayReport Run(core::FleetConfig cfg) {
    core::DecisionArm driver(&pipeline_->engine(), cfg);
    auto report = driver.RunDay(core::DayContext(4, *day_, *stats_));
    report.status().Check();
    return *std::move(report);
  }

  /// Exact equality of everything the day decided (cache counters excluded:
  /// they differ between cached and uncached runs by construction).
  static void ExpectIdentical(const core::FleetDayReport& a,
                              const core::FleetDayReport& b) {
    EXPECT_EQ(a.jobs_considered, b.jobs_considered);
    EXPECT_EQ(a.jobs_with_cut, b.jobs_with_cut);
    EXPECT_EQ(a.jobs_admitted, b.jobs_admitted);
    EXPECT_EQ(a.storage_used_bytes, b.storage_used_bytes);
    EXPECT_EQ(a.total_temp_byte_seconds, b.total_temp_byte_seconds);
    EXPECT_EQ(a.realized_saving_byte_seconds, b.realized_saving_byte_seconds);
    EXPECT_EQ(a.knapsack_threshold, b.knapsack_threshold);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const core::FleetJobOutcome& x = a.outcomes[i];
      const core::FleetJobOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_id, y.job_id);
      EXPECT_EQ(x.admitted, y.admitted);
      EXPECT_EQ(x.global_bytes, y.global_bytes);
      EXPECT_EQ(x.predicted_value, y.predicted_value);
      EXPECT_EQ(x.realized_value, y.realized_value);
      EXPECT_EQ(x.cut.before_cut, y.cut.before_cut);
      ASSERT_EQ(x.cuts.size(), y.cuts.size());
      for (size_t c = 0; c < x.cuts.size(); ++c) {
        EXPECT_EQ(x.cuts[c].before_cut, y.cuts[c].before_cut);
      }
    }
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static core::PhoebePipeline* pipeline_;
  static std::vector<workload::JobInstance>* day_;
  static telemetry::HistoricStats* stats_;
};

workload::WorkloadGenerator* BatchCacheFleetFixture::gen_ = nullptr;
telemetry::WorkloadRepository* BatchCacheFleetFixture::repo_ = nullptr;
core::PhoebePipeline* BatchCacheFleetFixture::pipeline_ = nullptr;
std::vector<workload::JobInstance>* BatchCacheFleetFixture::day_ = nullptr;
telemetry::HistoricStats* BatchCacheFleetFixture::stats_ = nullptr;

TEST_F(BatchCacheFleetFixture, ExactCacheIsByteNeutralAndActuallyHits) {
  core::FleetConfig off;
  core::FleetDayReport base = Run(off);

  core::FleetConfig on;
  on.template_cache.enabled = true;
  on.template_cache.quantize_bps = 0;
  core::FleetDayReport cached = Run(on);

  ExpectIdentical(base, cached);
  // The duplicated half of the day must be served from the cache — the test
  // is vacuous if every job misses.
  EXPECT_GE(cached.cache_hits, static_cast<int64_t>(cached.jobs_considered / 2));
  EXPECT_EQ(cached.cache_hits + cached.cache_misses,
            static_cast<int64_t>(cached.jobs_considered));
  EXPECT_EQ(base.cache_hits, 0);
  EXPECT_EQ(base.cache_misses, 0);
}

TEST_F(BatchCacheFleetFixture, ExactCacheIsByteNeutralPerSourceAndObjective) {
  for (core::CostSource source :
       {core::CostSource::kTruth, core::CostSource::kOptimizerEstimates,
        core::CostSource::kMlStacked}) {
    for (core::Objective objective :
         {core::Objective::kTempStorage, core::Objective::kRecovery}) {
      core::FleetConfig cfg;
      cfg.source = source;
      cfg.objective = objective;
      core::FleetDayReport base = Run(cfg);
      cfg.template_cache.enabled = true;
      core::FleetDayReport cached = Run(cfg);
      ExpectIdentical(base, cached);
      EXPECT_GT(cached.cache_hits, 0);
    }
  }
}

TEST_F(BatchCacheFleetFixture, CachedDayIsThreadCountInvariant) {
  // Approximate mode (drift tolerance on) may legitimately differ from the
  // uncached report, but must still be a pure function of the arrival order:
  // byte-identical for any thread count, counters included.
  std::vector<core::FleetDayReport> reports;
  for (int threads : {1, 2, 8}) {
    core::FleetConfig cfg;
    cfg.num_threads = threads;
    cfg.template_cache.enabled = true;
    cfg.template_cache.quantize_bps = 5000;
    reports.push_back(Run(cfg));
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    ExpectIdentical(reports[0], reports[i]);
    EXPECT_EQ(reports[0].cache_hits, reports[i].cache_hits);
    EXPECT_EQ(reports[0].cache_misses, reports[i].cache_misses);
    EXPECT_EQ(reports[0].cache_evictions, reports[i].cache_evictions);
  }
}

TEST_F(BatchCacheFleetFixture, TinyCapacityEvictsDeterministically) {
  core::FleetConfig cfg;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 2;
  core::FleetDayReport base = Run(cfg);
  // Many distinct exact keys through a 2-entry cache must evict...
  EXPECT_GT(base.cache_evictions, 0);
  // ...and stay byte-neutral (exact mode) and reproducible.
  core::FleetConfig off;
  ExpectIdentical(Run(off), base);
  core::FleetDayReport again = Run(cfg);
  ExpectIdentical(base, again);
  EXPECT_EQ(base.cache_evictions, again.cache_evictions);
}

}  // namespace
}  // namespace phoebe::testing
