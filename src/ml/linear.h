// Ridge-regularized linear regression (normal equations + Cholesky).
// Serves as the simple baseline learner the paper compares LightGBM against.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ml/model.h"

namespace phoebe::ml {

/// \brief Hyperparameters for RidgeRegressor.
struct RidgeParams {
  double lambda = 1.0;       ///< L2 penalty (not applied to the intercept)
  bool standardize = true;   ///< z-score features before solving
};

/// \brief Linear least-squares with L2 regularization.
class RidgeRegressor : public Regressor {
 public:
  explicit RidgeRegressor(RidgeParams params = {});

  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;
  /// Row-subset scoring: the same dot product as Predict, bit-equal.
  void PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                       std::vector<double>* out) const override;
  bool fitted() const override { return fitted_; }

  /// Learned weights in original (un-standardized) feature space.
  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }

  /// Serialize to a line-oriented text format; FromText round-trips it.
  std::string ToText() const;
  /// Primary Status-first parse entry point: on error `*out` is untouched
  /// and the Status names what was malformed (never a crash).
  static Status FromText(std::string_view text, RidgeRegressor* out);
  /// Deprecated shim; delegates to the two-argument overload.
  static Result<RidgeRegressor> FromText(const std::string& text);

 private:
  RidgeParams params_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

/// Solve A x = b for symmetric positive-definite A (dense, row-major n x n)
/// via Cholesky decomposition. Fails if A is not positive definite.
Result<std::vector<double>> SolveCholesky(std::vector<double> a,
                                          std::vector<double> b, size_t n);

}  // namespace phoebe::ml
