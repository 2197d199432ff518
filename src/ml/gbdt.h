// Gradient-boosted regression trees with histogram-based split finding and
// leaf-wise (best-first) growth — the LightGBM-style learner the paper uses
// for its stage-level cost models, reimplemented from scratch.
//
// Training:
//  * Features are quantile-binned into at most `max_bins` bins once up front.
//  * Each boosting round fits one tree to the negative gradient of squared
//    loss (residuals); trees grow leaf-wise, always splitting the leaf with
//    the highest gain until `num_leaves` is reached.
//  * Split gain uses the standard second-order formula with L2 regularization
//    lambda: gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l).
//  * Optional row subsampling and feature fraction per tree (stochastic GBM).
//
// Prediction walks raw (un-binned) feature values against real-valued
// thresholds recovered from bin boundaries, so models serialize independently
// of the training binning.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ml/model.h"

namespace phoebe::ml {

/// \brief Training objective.
enum class GbdtObjective {
  kSquared,   ///< mean squared error (default)
  kQuantile,  ///< pinball loss at `quantile_alpha` (e.g. 0.9 for a p90
              ///< conservative cost estimate)
};

/// \brief Hyperparameters for GbdtRegressor.
struct GbdtParams {
  int num_trees = 100;
  int num_leaves = 31;
  double learning_rate = 0.1;
  int max_bins = 64;
  int min_data_in_leaf = 20;
  double lambda = 1.0;          ///< L2 regularization on leaf values
  double min_gain = 1e-12;      ///< minimum gain to accept a split
  double subsample = 1.0;       ///< row fraction per tree
  double feature_fraction = 1.0;///< feature fraction per tree
  uint64_t seed = 42;

  /// Early stopping: when > 0, `validation_fraction` of the rows are held
  /// out; boosting stops once the held-out MSE has not improved for this
  /// many rounds, and the model is truncated to the best round.
  int early_stopping_rounds = 0;
  double validation_fraction = 0.15;

  GbdtObjective objective = GbdtObjective::kSquared;
  double quantile_alpha = 0.5;  ///< only used with kQuantile

  Status Validate() const;
};

/// \brief One node of a regression tree (internal or leaf).
struct TreeNode {
  int feature = -1;        ///< -1 for leaves
  double threshold = 0.0;  ///< go left if x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;      ///< leaf output (learning rate already applied)
  bool is_leaf() const { return feature < 0; }
};

/// \brief A single regression tree as a flat node array (root at index 0).
struct Tree {
  std::vector<TreeNode> nodes;
  double Predict(std::span<const double> x) const;
};

/// \brief Gradient-boosted decision tree regressor.
class GbdtRegressor : public Regressor {
 public:
  explicit GbdtRegressor(GbdtParams params = {});

  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;

  /// Batched forest traversal over the flattened SoA node arrays: tree-major
  /// within fixed row blocks, so one tree's nodes stay cache-hot while a
  /// whole block of rows walks it, writing into a caller-owned buffer (no
  /// allocation once `out` is warm). Bit-equal to the scalar Predict (same
  /// thresholds, same per-row tree accumulation order).
  void PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                       std::vector<double>* out) const override;

  bool fitted() const override { return fitted_; }

  const GbdtParams& params() const { return params_; }
  size_t num_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }
  /// Held-out MSE at the kept round (0 when early stopping is off).
  double best_validation_mse() const { return best_validation_mse_; }

  /// Total split gain accumulated per feature during training (normalized to
  /// sum to 1). Empty before Fit.
  std::vector<double> FeatureImportanceGain() const;

  /// Serialize to a line-oriented text format; FromText round-trips it.
  std::string ToText() const;
  /// Primary Status-first parse entry point: on error `*out` is untouched
  /// and the Status names what was malformed (never a crash).
  static Status FromText(std::string_view text, GbdtRegressor* out);
  /// Deprecated shim; delegates to the two-argument overload.
  static Result<GbdtRegressor> FromText(const std::string& text);

 private:
  Status FitCore(const Dataset& train, const Dataset* valid);

  /// Serving layout for PredictRowsInto: all trees' nodes concatenated into
  /// contiguous structure-of-arrays columns (child indices already offset
  /// into the concatenated arrays), replacing the per-tree vector-of-structs
  /// pointer chase. Rebuilt from `trees_` after Fit and FromText; never
  /// serialized.
  struct FlatForest {
    std::vector<int32_t> feature;    ///< split feature; -1 marks a leaf
    std::vector<double> threshold;   ///< go left if x[feature] <= threshold
    std::vector<int32_t> left;
    std::vector<int32_t> right;
    std::vector<double> value;       ///< leaf output
    std::vector<int32_t> root;       ///< root node index of each tree
  };
  void RebuildFlatForest();

  GbdtParams params_;
  double base_score_ = 0.0;
  double best_validation_mse_ = 0.0;
  std::vector<Tree> trees_;
  FlatForest flat_;
  std::vector<double> gain_by_feature_;
  size_t num_features_ = 0;
  bool fitted_ = false;
};

}  // namespace phoebe::ml
