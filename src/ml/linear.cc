#include "ml/linear.h"

#include <cmath>

#include "common/strings.h"

namespace phoebe::ml {

Result<std::vector<double>> SolveCholesky(std::vector<double> a, std::vector<double> b,
                                          size_t n) {
  PHOEBE_CHECK(a.size() == n * n && b.size() == n);
  // In-place lower-triangular factorization A = L L^T.
  for (size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (d <= 0.0) {
      return Status::FailedPrecondition(
          StrFormat("matrix not positive definite at pivot %zu (d=%g)", j, d));
    }
    a[j * n + j] = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / a[j * n + j];
    }
  }
  // Forward substitution L y = b.
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= a[i * n + k] * b[k];
    b[i] = s / a[i * n + i];
  }
  // Back substitution L^T x = y.
  for (size_t i = n; i-- > 0;) {
    double s = b[i];
    for (size_t k = i + 1; k < n; ++k) s -= a[k * n + i] * b[k];
    b[i] = s / a[i * n + i];
  }
  return b;
}

RidgeRegressor::RidgeRegressor(RidgeParams params) : params_(params) {}

Status RidgeRegressor::Fit(const Dataset& data) {
  PHOEBE_RETURN_NOT_OK(data.Validate());
  if (data.size() == 0) return Status::InvalidArgument("empty training set");
  if (params_.lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");

  const size_t nr = data.size();
  const size_t nf = data.x.num_features();

  // Column means/stds for centering (ridge with unpenalized intercept).
  std::vector<double> mean(nf, 0.0), stddev(nf, 1.0);
  for (size_t r = 0; r < nr; ++r) {
    auto row = data.x.Row(r);
    for (size_t f = 0; f < nf; ++f) mean[f] += row[f];
  }
  for (double& m : mean) m /= static_cast<double>(nr);
  if (params_.standardize) {
    std::vector<double> var(nf, 0.0);
    for (size_t r = 0; r < nr; ++r) {
      auto row = data.x.Row(r);
      for (size_t f = 0; f < nf; ++f) {
        double d = row[f] - mean[f];
        var[f] += d * d;
      }
    }
    for (size_t f = 0; f < nf; ++f) {
      stddev[f] = std::sqrt(var[f] / static_cast<double>(nr));
      if (stddev[f] < 1e-12) stddev[f] = 1.0;  // constant column contributes 0
    }
  }

  double y_mean = 0.0;
  for (double y : data.y) y_mean += y;
  y_mean /= static_cast<double>(nr);

  // Normal equations on centered/standardized data: (X^T X + lambda I) w = X^T y.
  std::vector<double> xtx(nf * nf, 0.0), xty(nf, 0.0);
  std::vector<double> z(nf);
  for (size_t r = 0; r < nr; ++r) {
    auto row = data.x.Row(r);
    for (size_t f = 0; f < nf; ++f) z[f] = (row[f] - mean[f]) / stddev[f];
    double yc = data.y[r] - y_mean;
    for (size_t i = 0; i < nf; ++i) {
      xty[i] += z[i] * yc;
      for (size_t j = i; j < nf; ++j) xtx[i * nf + j] += z[i] * z[j];
    }
  }
  for (size_t i = 0; i < nf; ++i) {
    xtx[i * nf + i] += params_.lambda + 1e-9;  // jitter guards degenerate columns
    for (size_t j = i + 1; j < nf; ++j) xtx[j * nf + i] = xtx[i * nf + j];
  }

  PHOEBE_ASSIGN_OR_RETURN(std::vector<double> w, SolveCholesky(std::move(xtx),
                                                               std::move(xty), nf));

  // Fold standardization back into original-space weights.
  weights_.assign(nf, 0.0);
  intercept_ = y_mean;
  for (size_t f = 0; f < nf; ++f) {
    weights_[f] = w[f] / stddev[f];
    intercept_ -= weights_[f] * mean[f];
  }
  fitted_ = true;
  return Status::OK();
}

double RidgeRegressor::Predict(std::span<const double> features) const {
  PHOEBE_CHECK_MSG(fitted_, "Predict called before Fit");
  PHOEBE_CHECK(features.size() == weights_.size());
  double out = intercept_;
  for (size_t f = 0; f < weights_.size(); ++f) out += weights_[f] * features[f];
  return out;
}

void RidgeRegressor::PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                                     std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(fitted_, "PredictRowsInto called before Fit");
  out->resize(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    auto row = x.Row(rows[k]);
    PHOEBE_CHECK(row.size() == weights_.size());
    double y = intercept_;
    for (size_t f = 0; f < weights_.size(); ++f) y += weights_[f] * row[f];
    (*out)[k] = y;
  }
}

std::string RidgeRegressor::ToText() const {
  PHOEBE_CHECK_MSG(fitted_, "ToText called before Fit");
  std::string out;
  StrAppend(&out, "ridge ", weights_.size(), ' ', intercept_, '\n');
  for (double w : weights_) StrAppend(&out, "w ", w, '\n');
  return out;
}

Status RidgeRegressor::FromText(std::string_view text, RidgeRegressor* out) {
  PHOEBE_CHECK(out != nullptr);
  std::vector<std::string> lines = Split(std::string(text), '\n');
  size_t i = 0;
  while (i < lines.size() && lines[i].empty()) ++i;
  if (i >= lines.size()) return Status::InvalidArgument("empty ridge model");
  std::vector<std::string> hdr = Split(lines[i++], ' ');
  if (hdr.size() != 3 || hdr[0] != "ridge") {
    return Status::InvalidArgument("bad ridge header");
  }
  RidgeRegressor model;
  size_t n = static_cast<size_t>(std::atoll(hdr[1].c_str()));
  PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(hdr[2], &model.intercept_));
  model.weights_.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    while (i < lines.size() && lines[i].empty()) ++i;
    if (i >= lines.size()) return Status::InvalidArgument("truncated ridge model");
    std::vector<std::string> tok = Split(lines[i++], ' ');
    if (tok.size() != 2 || tok[0] != "w") {
      return Status::InvalidArgument("bad ridge weight line");
    }
    double w = 0.0;
    PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[1], &w));
    model.weights_.push_back(w);
  }
  model.fitted_ = true;
  *out = std::move(model);
  return Status::OK();
}

Result<RidgeRegressor> RidgeRegressor::FromText(const std::string& text) {
  RidgeRegressor model;
  PHOEBE_RETURN_NOT_OK(FromText(std::string_view(text), &model));
  return model;
}

}  // namespace phoebe::ml
