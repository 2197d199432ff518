// Tests for the ML substrate: datasets, GBDT, ridge regression, MLP, text
// hashing, and permutation importance.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/importance.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/text.h"
#include "ml/tuning.h"

namespace phoebe::ml {
namespace {

/// y = 3 x0 - 2 x1 + noise, x2 irrelevant.
Dataset LinearData(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  ds.x = FeatureMatrix({"x0", "x1", "x2"});
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(-2, 2), x1 = rng.Uniform(-2, 2), x2 = rng.Uniform(-2, 2);
    ds.x.AddRow(std::vector<double>{x0, x1, x2});
    ds.y.push_back(3 * x0 - 2 * x1 + rng.Normal(0, noise));
  }
  return ds;
}

/// Nonlinear: y = x0^2 + step(x1) * 5 + noise.
Dataset NonlinearData(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  ds.x = FeatureMatrix({"x0", "x1"});
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(-2, 2), x1 = rng.Uniform(-2, 2);
    ds.x.AddRow(std::vector<double>{x0, x1});
    ds.y.push_back(x0 * x0 + (x1 > 0.3 ? 5.0 : 0.0) + rng.Normal(0, noise));
  }
  return ds;
}

// ---------- Dataset ----------

TEST(DatasetTest, RowAccess) {
  FeatureMatrix m({"a", "b"});
  m.AddRow(std::vector<double>{1.0, 2.0});
  m.AddRow(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.At(1, 0), 3.0);
  m.Set(1, 0, 9.0);
  EXPECT_EQ(m.Row(1)[0], 9.0);
  EXPECT_EQ(m.FeatureIndex("b"), 1);
  EXPECT_EQ(m.FeatureIndex("zz"), -1);
}

TEST(DatasetTest, ValidateCatchesMismatch) {
  Dataset ds;
  ds.x = FeatureMatrix({"a"});
  ds.x.AddRow(std::vector<double>{1.0});
  EXPECT_FALSE(ds.Validate().ok());
  ds.y.push_back(0.5);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetTest, SplitPartitions) {
  Dataset ds = LinearData(100, 0.0, 1);
  Rng rng(2);
  auto [train, test] = ds.Split(0.8, &rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  EXPECT_EQ(train.x.num_features(), 3u);
}

TEST(DatasetTest, SubsetSelectsRows) {
  Dataset ds = LinearData(10, 0.0, 3);
  Dataset sub = ds.Subset({0, 5});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.y[1], ds.y[5]);
}

// ---------- GBDT ----------

TEST(GbdtTest, ParamsValidation) {
  GbdtParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.num_leaves = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = GbdtParams{};
  p.max_bins = 300;
  EXPECT_FALSE(p.Validate().ok());
  p = GbdtParams{};
  p.subsample = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(GbdtTest, FitsLinearFunction) {
  Dataset ds = LinearData(2000, 0.1, 4);
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  std::vector<double> pred = model.PredictBatch(ds.x);
  EXPECT_GT(RSquared(ds.y, pred), 0.9);
}

TEST(GbdtTest, FitsNonlinearFunction) {
  Dataset ds = NonlinearData(3000, 0.1, 5);
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  std::vector<double> pred = model.PredictBatch(ds.x);
  EXPECT_GT(RSquared(ds.y, pred), 0.95);
}

TEST(GbdtTest, GeneralizesToFreshSample) {
  Dataset train = NonlinearData(3000, 0.1, 6);
  Dataset test = NonlinearData(500, 0.1, 7);
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_GT(RSquared(test.y, model.PredictBatch(test.x)), 0.9);
}

TEST(GbdtTest, DeterministicGivenSeed) {
  Dataset ds = NonlinearData(500, 0.1, 8);
  GbdtParams p;
  p.subsample = 0.7;
  p.feature_fraction = 0.8;
  GbdtRegressor a(p), b(p);
  ASSERT_TRUE(a.Fit(ds).ok());
  ASSERT_TRUE(b.Fit(ds).ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(ds.x.Row(i)), b.Predict(ds.x.Row(i)));
  }
}

TEST(GbdtTest, ConstantTargetPredictsConstant) {
  Dataset ds;
  ds.x = FeatureMatrix({"x"});
  for (int i = 0; i < 100; ++i) {
    ds.x.AddRow(std::vector<double>{static_cast<double>(i)});
    ds.y.push_back(7.0);
  }
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  EXPECT_NEAR(model.Predict(std::vector<double>{42.0}), 7.0, 1e-9);
}

TEST(GbdtTest, RejectsEmptyData) {
  Dataset ds;
  ds.x = FeatureMatrix({"x"});
  GbdtRegressor model;
  EXPECT_FALSE(model.Fit(ds).ok());
  EXPECT_FALSE(model.fitted());
}

TEST(GbdtTest, FeatureImportanceFindsRelevantFeature) {
  // y depends only on x0.
  Rng rng(9);
  Dataset ds;
  ds.x = FeatureMatrix({"signal", "noise"});
  for (int i = 0; i < 2000; ++i) {
    double x0 = rng.Uniform(-1, 1), x1 = rng.Uniform(-1, 1);
    ds.x.AddRow(std::vector<double>{x0, x1});
    ds.y.push_back(std::sin(3 * x0));
  }
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  auto imp = model.FeatureImportanceGain();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(GbdtTest, SerializationRoundTrip) {
  Dataset ds = NonlinearData(800, 0.1, 10);
  GbdtParams p;
  p.num_trees = 20;
  GbdtRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  auto restored = GbdtRegressor::FromText(model.ToText());
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(model.Predict(ds.x.Row(i)), restored->Predict(ds.x.Row(i)));
  }
}

TEST(GbdtTest, FromTextRejectsGarbage) {
  EXPECT_FALSE(GbdtRegressor::FromText("").ok());
  EXPECT_FALSE(GbdtRegressor::FromText("not a model").ok());
  EXPECT_FALSE(GbdtRegressor::FromText("gbdt 2 1 0.5\ntree 1\n").ok());
  // A number field that is not a number is an error, never a silent 0.
  EXPECT_FALSE(GbdtRegressor::FromText("gbdt 1 0 abc\n").ok());
  EXPECT_FALSE(GbdtRegressor::FromText("gbdt 1 1 0.5\ntree 1\nnode -1 0 -1 -1 xyz\n").ok());
}

// Parameterized sweep: the learner converges across hyperparameter corners.
struct GbdtSweepCase {
  int trees;
  int leaves;
  double subsample;
  double feature_fraction;
};

class GbdtSweepTest : public ::testing::TestWithParam<GbdtSweepCase> {};

TEST_P(GbdtSweepTest, ReasonableFitEverywhere) {
  const GbdtSweepCase& c = GetParam();
  GbdtParams p;
  p.num_trees = c.trees;
  p.num_leaves = c.leaves;
  p.subsample = c.subsample;
  p.feature_fraction = c.feature_fraction;
  p.min_data_in_leaf = 5;
  Dataset ds = NonlinearData(1500, 0.2, 11);
  GbdtRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  EXPECT_GT(RSquared(ds.y, model.PredictBatch(ds.x)), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, GbdtSweepTest,
    ::testing::Values(GbdtSweepCase{50, 7, 1.0, 1.0}, GbdtSweepCase{200, 31, 1.0, 1.0},
                      GbdtSweepCase{100, 15, 0.6, 1.0}, GbdtSweepCase{100, 15, 1.0, 0.5},
                      GbdtSweepCase{150, 63, 0.8, 0.8}));

TEST(GbdtTest, EarlyStoppingTruncatesAndGeneralizes) {
  Dataset train = NonlinearData(2000, 0.4, 21);
  GbdtParams with;
  with.num_trees = 400;
  with.early_stopping_rounds = 10;
  GbdtParams without = with;
  without.early_stopping_rounds = 0;

  GbdtRegressor a(with), b(without);
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  // Early stopping must actually stop before the full budget on noisy data.
  EXPECT_LT(a.num_trees(), b.num_trees());
  EXPECT_GT(a.num_trees(), 0u);
  EXPECT_GT(a.best_validation_mse(), 0.0);
  EXPECT_EQ(b.best_validation_mse(), 0.0);

  // And must not generalize worse than the over-fitted full run.
  Dataset test = NonlinearData(1000, 0.4, 22);
  double r2_early = RSquared(test.y, a.PredictBatch(test.x));
  double r2_full = RSquared(test.y, b.PredictBatch(test.x));
  EXPECT_GT(r2_early, r2_full - 0.05);
}

TEST(GbdtTest, EarlyStoppingValidation) {
  GbdtParams p;
  p.early_stopping_rounds = -1;
  EXPECT_FALSE(p.Validate().ok());
  p = GbdtParams{};
  p.early_stopping_rounds = 5;
  p.validation_fraction = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  // Too few rows for a split.
  p = GbdtParams{};
  p.early_stopping_rounds = 5;
  Dataset tiny;
  tiny.x = FeatureMatrix({"x"});
  tiny.x.AddRow(std::vector<double>{1.0});
  tiny.y.push_back(1.0);
  GbdtRegressor m(p);
  EXPECT_FALSE(m.Fit(tiny).ok());
}

TEST(GbdtTest, EarlyStoppingDeterministic) {
  Dataset ds = NonlinearData(800, 0.3, 23);
  GbdtParams p;
  p.num_trees = 150;
  p.early_stopping_rounds = 8;
  GbdtRegressor a(p), b(p);
  ASSERT_TRUE(a.Fit(ds).ok());
  ASSERT_TRUE(b.Fit(ds).ok());
  EXPECT_EQ(a.num_trees(), b.num_trees());
  EXPECT_DOUBLE_EQ(a.Predict(ds.x.Row(0)), b.Predict(ds.x.Row(0)));
}

TEST(GbdtTest, QuantileObjectiveCoversTargetFraction) {
  // Heteroscedastic data: y = x + noise(x). A p90 model should cover ~90%
  // of fresh observations from above; a p10 model ~10%.
  Rng rng(24);
  auto make = [&](size_t n, uint64_t seed) {
    Rng r(seed);
    Dataset ds;
    ds.x = FeatureMatrix({"x"});
    for (size_t i = 0; i < n; ++i) {
      double x = r.Uniform(0, 4);
      ds.x.AddRow(std::vector<double>{x});
      ds.y.push_back(x + r.Normal(0, 0.5 + 0.25 * x));
    }
    return ds;
  };
  Dataset train = make(4000, 25);
  Dataset test = make(1500, 26);

  for (double alpha : {0.1, 0.5, 0.9}) {
    GbdtParams p;
    p.objective = GbdtObjective::kQuantile;
    p.quantile_alpha = alpha;
    p.num_trees = 250;
    p.num_leaves = 15;
    GbdtRegressor model(p);
    ASSERT_TRUE(model.Fit(train).ok());
    int covered = 0;
    for (size_t i = 0; i < test.size(); ++i) {
      covered += (test.y[i] <= model.Predict(test.x.Row(i))) ? 1 : 0;
    }
    double coverage = static_cast<double>(covered) / static_cast<double>(test.size());
    EXPECT_NEAR(coverage, alpha, 0.07) << "alpha=" << alpha;
  }
}

TEST(GbdtTest, QuantileParamsValidation) {
  GbdtParams p;
  p.objective = GbdtObjective::kQuantile;
  p.quantile_alpha = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.quantile_alpha = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.quantile_alpha = 0.9;
  EXPECT_TRUE(p.Validate().ok());
}

// ---------- Tuning ----------

TEST(CrossValidateTest, ScoresReasonableModel) {
  Dataset ds = NonlinearData(1200, 0.2, 27);
  auto cv = CrossValidate([] { return std::make_unique<GbdtRegressor>(); }, ds, 4, 5);
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->fold_r2.size(), 4u);
  EXPECT_GT(cv->mean_r2, 0.9);
  EXPECT_GE(cv->stddev_r2, 0.0);
}

TEST(CrossValidateTest, Validation) {
  Dataset ds = NonlinearData(10, 0.1, 28);
  auto make = [] { return std::make_unique<GbdtRegressor>(); };
  EXPECT_FALSE(CrossValidate(make, ds, 1).ok());
  EXPECT_FALSE(CrossValidate(make, ds, 11).ok());
}

TEST(CrossValidateTest, DeterministicGivenSeed) {
  Dataset ds = NonlinearData(600, 0.2, 29);
  auto make = [] { return std::make_unique<GbdtRegressor>(); };
  auto a = CrossValidate(make, ds, 3, 7);
  auto b = CrossValidate(make, ds, 3, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->mean_r2, b->mean_r2);
}

TEST(GridSearchTest, RanksAndCoversGrid) {
  Dataset ds = NonlinearData(800, 0.2, 30);
  GbdtParams base;
  base.num_trees = 40;
  GbdtGrid grid;
  grid.num_leaves = {3, 31};
  grid.learning_rate = {0.02, 0.2};
  auto result = GridSearch(base, grid, ds, 3, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 4u);  // 2 x 2 grid
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_GE((*result)[i - 1].cv.mean_r2, (*result)[i].cv.mean_r2);
  }
  // A tiny tree with a slow rate must not win on this data.
  const auto& best = result->front().params;
  EXPECT_FALSE(best.num_leaves == 3 && best.learning_rate == 0.02);
}

// ---------- Ridge ----------

TEST(RidgeTest, RecoversCoefficients) {
  Dataset ds = LinearData(2000, 0.01, 12);
  RidgeParams p;
  p.lambda = 1e-6;
  RidgeRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  ASSERT_EQ(model.weights().size(), 3u);
  EXPECT_NEAR(model.weights()[0], 3.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -2.0, 0.05);
  EXPECT_NEAR(model.weights()[2], 0.0, 0.05);
  EXPECT_NEAR(model.intercept(), 0.0, 0.05);
}

TEST(RidgeTest, RegularizationShrinksWeights) {
  Dataset ds = LinearData(500, 0.1, 13);
  RidgeRegressor weak({1e-6, true}), strong({1e5, true});
  ASSERT_TRUE(weak.Fit(ds).ok());
  ASSERT_TRUE(strong.Fit(ds).ok());
  EXPECT_LT(std::abs(strong.weights()[0]), std::abs(weak.weights()[0]));
}

TEST(RidgeTest, HandlesConstantColumn) {
  Dataset ds;
  ds.x = FeatureMatrix({"c", "x"});
  Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(-1, 1);
    ds.x.AddRow(std::vector<double>{5.0, x});
    ds.y.push_back(2 * x + 1);
  }
  RidgeRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  EXPECT_NEAR(model.Predict(std::vector<double>{5.0, 0.5}), 2.0, 0.2);
}

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2.0]... verify by multiply.
  auto x = SolveCholesky({4, 2, 2, 3}, {10, 9}, 2);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(4 * (*x)[0] + 2 * (*x)[1], 10.0, 1e-9);
  EXPECT_NEAR(2 * (*x)[0] + 3 * (*x)[1], 9.0, 1e-9);
}

TEST(CholeskyTest, RejectsIndefinite) {
  EXPECT_FALSE(SolveCholesky({1, 2, 2, 1}, {1, 1}, 2).ok());
}

// ---------- MLP ----------

TEST(MlpTest, ParamsValidation) {
  MlpParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.hidden = {};
  EXPECT_FALSE(p.Validate().ok());
  p = MlpParams{};
  p.epochs = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(MlpTest, FitsLinearFunction) {
  Dataset ds = LinearData(1000, 0.05, 15);
  MlpParams p;
  p.hidden = {16};
  p.epochs = 60;
  MlpRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  EXPECT_GT(RSquared(ds.y, model.PredictBatch(ds.x)), 0.95);
}

TEST(MlpTest, FitsNonlinearFunction) {
  Dataset ds = NonlinearData(1500, 0.1, 16);
  MlpParams p;
  p.hidden = {32, 32};
  p.epochs = 80;
  MlpRegressor model(p);
  ASSERT_TRUE(model.Fit(ds).ok());
  EXPECT_GT(RSquared(ds.y, model.PredictBatch(ds.x)), 0.9);
}

TEST(MlpTest, DeterministicGivenSeed) {
  Dataset ds = LinearData(300, 0.1, 17);
  MlpParams p;
  p.epochs = 10;
  MlpRegressor a(p), b(p);
  ASSERT_TRUE(a.Fit(ds).ok());
  ASSERT_TRUE(b.Fit(ds).ok());
  EXPECT_DOUBLE_EQ(a.Predict(ds.x.Row(0)), b.Predict(ds.x.Row(0)));
}

TEST(MlpTest, LossDecreasesWithEpochs) {
  Dataset ds = NonlinearData(800, 0.1, 18);
  MlpParams few;
  few.epochs = 2;
  MlpParams many = few;
  many.epochs = 60;
  MlpRegressor a(few), b(many);
  ASSERT_TRUE(a.Fit(ds).ok());
  ASSERT_TRUE(b.Fit(ds).ok());
  EXPECT_LT(b.final_train_loss(), a.final_train_loss());
}

// ---------- Text hashing ----------

TEST(TextTest, Deterministic) {
  TextHasher h(16);
  EXPECT_EQ(h.Embed("shares/ads/click.log"), h.Embed("shares/ads/click.log"));
}

TEST(TextTest, CaseInsensitive) {
  TextHasher h(16);
  EXPECT_EQ(h.Embed("ABC_def"), h.Embed("abc_DEF"));
}

TEST(TextTest, UnitNorm) {
  TextHasher h(32);
  auto v = h.Embed("some/path/to/data.ss");
  double norm = 0;
  for (double x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(TextTest, ShortStringsAreZero) {
  TextHasher h(8, 3, 4);
  auto v = h.Embed("ab");  // shorter than min n-gram
  for (double x : v) EXPECT_EQ(x, 0.0);
}

TEST(TextTest, SimilarStringsCloserThanDissimilar) {
  TextHasher h(64);
  auto a = h.Embed("shares/ads/click_agg/part.log");
  auto b = h.Embed("shares/ads/click_agg/part2.log");
  auto c = h.Embed("zzz/totally/other.ss");
  auto dot = [](const std::vector<double>& x, const std::vector<double>& y) {
    double s = 0;
    for (size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
    return s;
  };
  EXPECT_GT(dot(a, b), dot(a, c));
}

TEST(TextTest, EmbedIntoAppends) {
  TextHasher h(8);
  std::vector<double> out{1.0};
  h.EmbedInto("hello world", &out);
  EXPECT_EQ(out.size(), 9u);
  EXPECT_EQ(out[0], 1.0);
}

TEST(TextTest, Fnv1aKnownProperty) {
  // Different inputs hash differently (sanity, not cryptographic).
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
  EXPECT_EQ(Fnv1a64("abc", 3), Fnv1a64("abc", 3));
}

// ---------- Permutation importance ----------

TEST(PfiTest, RanksSignalAboveNoise) {
  Rng rng(19);
  Dataset ds;
  ds.x = FeatureMatrix({"noise1", "signal", "noise2"});
  for (int i = 0; i < 1500; ++i) {
    double s = rng.Uniform(-1, 1);
    ds.x.AddRow(std::vector<double>{rng.Uniform(-1, 1), s, rng.Uniform(-1, 1)});
    ds.y.push_back(4 * s);
  }
  GbdtRegressor model;
  ASSERT_TRUE(model.Fit(ds).ok());
  Rng prng(20);
  auto imp = PermutationImportance(model, ds, &prng, 2);
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_EQ(imp[0].name, "signal");
  EXPECT_GT(imp[0].delta_r2, 0.5);
  EXPECT_LT(std::abs(imp[1].delta_r2), 0.1);
}

}  // namespace
}  // namespace phoebe::ml
