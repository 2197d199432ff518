// Feed-forward neural network regressor (ReLU hidden layers, Adam optimizer).
//
// Stands in for the paper's "DNN benchmark" (word embedding + 2 hidden
// layers): text features are embedded via ml/text.h hashing and fed to this
// MLP. Expected to be slightly less accurate and far slower to train than the
// GBDT, matching the paper's findings in Section 6.1.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ml/model.h"

namespace phoebe::ml {

/// \brief Hyperparameters for MlpRegressor.
struct MlpParams {
  std::vector<int> hidden = {64, 64};  ///< hidden layer widths
  int epochs = 50;
  int batch_size = 64;
  double learning_rate = 1e-3;  ///< Adam step size
  double weight_decay = 0.0;    ///< L2 regularization
  uint64_t seed = 42;
  bool standardize = true;      ///< z-score inputs and target

  Status Validate() const;
};

/// \brief Multi-layer perceptron for regression, trained with Adam on MSE.
class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpParams params = {});

  Status Fit(const Dataset& data) override;
  double Predict(std::span<const double> features) const override;

  /// GEMM-style blocked forward pass over an explicit row subset into a
  /// caller-owned buffer: fixed row blocks flow through all layers using two
  /// flat ping-pong buffers, with each weight row reused across the whole
  /// block (loop order layer → output neuron → row → input). The buffers are
  /// per-thread and sized once, so a warm caller sees no heap traffic.
  /// Bit-equal to Predict: the inner input-index accumulation order is
  /// unchanged.
  void PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                       std::vector<double>* out) const override;

  bool fitted() const override { return fitted_; }

  /// Mean training loss of the final epoch (for convergence checks in tests).
  double final_train_loss() const { return final_train_loss_; }

  /// Serialize weights and normalization to text; FromText round-trips it.
  std::string ToText() const;
  /// Primary Status-first parse entry point: on error `*out` is untouched
  /// and the Status names what was malformed (never a crash).
  static Status FromText(std::string_view text, MlpRegressor* out);
  /// Deprecated shim; delegates to the two-argument overload.
  static Result<MlpRegressor> FromText(const std::string& text);

 private:
  struct Layer {
    int in = 0, out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;  // out
    // Adam state
    std::vector<double> mw, vw, mb, vb;
  };

  double Forward(std::span<const double> x, std::vector<std::vector<double>>* acts) const;

  MlpParams params_;
  std::vector<Layer> layers_;
  std::vector<double> x_mean_, x_std_;
  double y_mean_ = 0.0, y_std_ = 1.0;
  double final_train_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace phoebe::ml
