#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace phoebe::ml {

Status MlpParams::Validate() const {
  if (hidden.empty()) return Status::InvalidArgument("at least one hidden layer required");
  for (int h : hidden)
    if (h < 1) return Status::InvalidArgument("hidden widths must be >= 1");
  if (epochs < 1) return Status::InvalidArgument("epochs must be >= 1");
  if (batch_size < 1) return Status::InvalidArgument("batch_size must be >= 1");
  if (learning_rate <= 0.0) return Status::InvalidArgument("learning_rate must be > 0");
  if (weight_decay < 0.0) return Status::InvalidArgument("weight_decay must be >= 0");
  return Status::OK();
}

MlpRegressor::MlpRegressor(MlpParams params) : params_(std::move(params)) {}

double MlpRegressor::Forward(std::span<const double> x,
                             std::vector<std::vector<double>>* acts) const {
  // acts[l] holds the post-activation output of layer l (input is acts[0]).
  std::vector<double> cur(x.begin(), x.end());
  for (size_t f = 0; f < cur.size(); ++f) cur[f] = (cur[f] - x_mean_[f]) / x_std_[f];
  if (acts) acts->push_back(cur);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(static_cast<size_t>(layer.out));
    for (int o = 0; o < layer.out; ++o) {
      double s = layer.b[static_cast<size_t>(o)];
      const double* wrow = layer.w.data() + static_cast<size_t>(o) * static_cast<size_t>(layer.in);
      for (int i = 0; i < layer.in; ++i) s += wrow[i] * cur[static_cast<size_t>(i)];
      // ReLU on hidden layers, identity on the output layer.
      next[static_cast<size_t>(o)] =
          (l + 1 < layers_.size()) ? std::max(0.0, s) : s;
    }
    cur = std::move(next);
    if (acts) acts->push_back(cur);
  }
  return cur[0] * y_std_ + y_mean_;
}

Status MlpRegressor::Fit(const Dataset& data) {
  PHOEBE_RETURN_NOT_OK(params_.Validate());
  PHOEBE_RETURN_NOT_OK(data.Validate());
  if (data.size() == 0) return Status::InvalidArgument("empty training set");

  const size_t nr = data.size();
  const size_t nf = data.x.num_features();
  Rng rng(params_.seed);

  // Standardization statistics.
  x_mean_.assign(nf, 0.0);
  x_std_.assign(nf, 1.0);
  if (params_.standardize) {
    for (size_t r = 0; r < nr; ++r) {
      auto row = data.x.Row(r);
      for (size_t f = 0; f < nf; ++f) x_mean_[f] += row[f];
    }
    for (double& m : x_mean_) m /= static_cast<double>(nr);
    std::vector<double> var(nf, 0.0);
    for (size_t r = 0; r < nr; ++r) {
      auto row = data.x.Row(r);
      for (size_t f = 0; f < nf; ++f) {
        double d = row[f] - x_mean_[f];
        var[f] += d * d;
      }
    }
    for (size_t f = 0; f < nf; ++f) {
      x_std_[f] = std::sqrt(var[f] / static_cast<double>(nr));
      if (x_std_[f] < 1e-12) x_std_[f] = 1.0;
    }
    y_mean_ = std::accumulate(data.y.begin(), data.y.end(), 0.0) / static_cast<double>(nr);
    double yv = 0.0;
    for (double y : data.y) yv += (y - y_mean_) * (y - y_mean_);
    y_std_ = std::sqrt(yv / static_cast<double>(nr));
    if (y_std_ < 1e-12) y_std_ = 1.0;
  } else {
    y_mean_ = 0.0;
    y_std_ = 1.0;
  }

  // Layer setup with He initialization.
  std::vector<int> widths;
  widths.push_back(static_cast<int>(nf));
  for (int h : params_.hidden) widths.push_back(h);
  widths.push_back(1);
  layers_.clear();
  for (size_t l = 0; l + 1 < widths.size(); ++l) {
    Layer layer;
    layer.in = widths[l];
    layer.out = widths[l + 1];
    size_t nw = static_cast<size_t>(layer.in) * static_cast<size_t>(layer.out);
    layer.w.resize(nw);
    double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng.Normal(0.0, scale);
    layer.b.assign(static_cast<size_t>(layer.out), 0.0);
    layer.mw.assign(nw, 0.0);
    layer.vw.assign(nw, 0.0);
    layer.mb.assign(static_cast<size_t>(layer.out), 0.0);
    layer.vb.assign(static_cast<size_t>(layer.out), 0.0);
    layers_.push_back(std::move(layer));
  }
  fitted_ = true;  // Forward() below needs the standardization state

  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  int64_t step = 0;

  std::vector<size_t> order(nr);
  std::iota(order.begin(), order.end(), 0);

  // Per-layer gradient accumulators.
  std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }

  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batch_start = 0;
    while (batch_start < nr) {
      size_t batch_end = std::min(batch_start + static_cast<size_t>(params_.batch_size), nr);
      size_t bs = batch_end - batch_start;
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);

      for (size_t k = batch_start; k < batch_end; ++k) {
        size_t r = order[k];
        std::vector<std::vector<double>> acts;
        double pred = Forward(data.x.Row(r), &acts);
        double err_std = (pred - data.y[r]) / y_std_;  // d(loss)/d(output) in std space
        epoch_loss += (pred - data.y[r]) * (pred - data.y[r]);

        // Backprop: delta of output layer is the (scaled) error.
        std::vector<double> delta{2.0 * err_std / static_cast<double>(bs)};
        for (size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          const std::vector<double>& in_act = acts[l];
          std::vector<double> prev_delta(static_cast<size_t>(layer.in), 0.0);
          for (int o = 0; o < layer.out; ++o) {
            double d = delta[static_cast<size_t>(o)];
            if (d == 0.0) continue;
            gb[l][static_cast<size_t>(o)] += d;
            double* gwrow = gw[l].data() + static_cast<size_t>(o) * static_cast<size_t>(layer.in);
            const double* wrow = layer.w.data() + static_cast<size_t>(o) * static_cast<size_t>(layer.in);
            for (int i = 0; i < layer.in; ++i) {
              gwrow[i] += d * in_act[static_cast<size_t>(i)];
              prev_delta[static_cast<size_t>(i)] += d * wrow[i];
            }
          }
          if (l > 0) {
            // ReLU derivative on the previous layer's outputs.
            const std::vector<double>& out_act = acts[l];
            for (int i = 0; i < layer.in; ++i) {
              if (out_act[static_cast<size_t>(i)] <= 0.0)
                prev_delta[static_cast<size_t>(i)] = 0.0;
            }
          }
          delta = std::move(prev_delta);
        }
      }

      // Adam update.
      ++step;
      double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
      double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
      for (size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (size_t i = 0; i < layer.w.size(); ++i) {
          double g = gw[l][i] + params_.weight_decay * layer.w[i];
          layer.mw[i] = beta1 * layer.mw[i] + (1 - beta1) * g;
          layer.vw[i] = beta2 * layer.vw[i] + (1 - beta2) * g * g;
          layer.w[i] -= params_.learning_rate * (layer.mw[i] / bc1) /
                        (std::sqrt(layer.vw[i] / bc2) + eps);
        }
        for (size_t i = 0; i < layer.b.size(); ++i) {
          double g = gb[l][i];
          layer.mb[i] = beta1 * layer.mb[i] + (1 - beta1) * g;
          layer.vb[i] = beta2 * layer.vb[i] + (1 - beta2) * g * g;
          layer.b[i] -= params_.learning_rate * (layer.mb[i] / bc1) /
                        (std::sqrt(layer.vb[i] / bc2) + eps);
        }
      }
      batch_start = batch_end;
    }
    final_train_loss_ = epoch_loss / static_cast<double>(nr);
  }
  return Status::OK();
}

double MlpRegressor::Predict(std::span<const double> features) const {
  PHOEBE_CHECK_MSG(fitted_, "Predict called before Fit");
  PHOEBE_CHECK(features.size() == x_mean_.size());
  return Forward(features, nullptr);
}

void MlpRegressor::PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                                   std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(fitted_, "PredictRowsInto called before Fit");
  const size_t nr = rows.size();
  out->assign(nr, 0.0);
  if (nr == 0) return;
  PHOEBE_CHECK(x.num_features() == x_mean_.size());

  // Widest activation across input and every layer; each row occupies a
  // fixed max_w-sized slot in the ping-pong buffers so layers can swap
  // buffers without reshaping.
  size_t max_w = x_mean_.size();
  for (const Layer& l : layers_) max_w = std::max(max_w, static_cast<size_t>(l.out));

  constexpr size_t kRowBlock = 32;
  // Per-thread ping-pong buffers: grown to the widest model this thread has
  // served, then reused — the serving path stays allocation-free after warmup.
  thread_local std::vector<double> buf_a, buf_b;
  if (buf_a.size() < kRowBlock * max_w) {
    buf_a.assign(kRowBlock * max_w, 0.0);
    buf_b.assign(kRowBlock * max_w, 0.0);
  }
  for (size_t b0 = 0; b0 < nr; b0 += kRowBlock) {
    const size_t bn = std::min(kRowBlock, nr - b0);
    for (size_t k = 0; k < bn; ++k) {
      auto row = x.Row(rows[b0 + k]);
      double* dst = buf_a.data() + k * max_w;
      for (size_t f = 0; f < x_mean_.size(); ++f) {
        dst[f] = (row[f] - x_mean_[f]) / x_std_[f];
      }
    }
    double* cur = buf_a.data();
    double* nxt = buf_b.data();
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const bool relu = l + 1 < layers_.size();
      for (int o = 0; o < layer.out; ++o) {
        const double bias = layer.b[static_cast<size_t>(o)];
        const double* wrow =
            layer.w.data() + static_cast<size_t>(o) * static_cast<size_t>(layer.in);
        for (size_t k = 0; k < bn; ++k) {
          const double* in_row = cur + k * max_w;
          double s = bias;
          for (int i = 0; i < layer.in; ++i) s += wrow[i] * in_row[static_cast<size_t>(i)];
          nxt[k * max_w + static_cast<size_t>(o)] = relu ? std::max(0.0, s) : s;
        }
      }
      std::swap(cur, nxt);
    }
    for (size_t k = 0; k < bn; ++k) (*out)[b0 + k] = cur[k * max_w] * y_std_ + y_mean_;
  }
}

std::string MlpRegressor::ToText() const {
  PHOEBE_CHECK_MSG(fitted_, "ToText called before Fit");
  std::string out;
  StrAppend(&out, "mlp ", x_mean_.size(), ' ', layers_.size(), ' ', y_mean_, ' ', y_std_,
            '\n');
  for (size_t f = 0; f < x_mean_.size(); ++f) {
    StrAppend(&out, "norm ", x_mean_[f], ' ', x_std_[f], '\n');
  }
  for (const Layer& l : layers_) {
    StrAppend(&out, "layer ", l.in, ' ', l.out, '\n');
    for (double w : l.w) StrAppend(&out, w, '\n');
    for (double b : l.b) StrAppend(&out, b, '\n');
  }
  return out;
}

Status MlpRegressor::FromText(std::string_view text, MlpRegressor* out) {
  PHOEBE_CHECK(out != nullptr);
  std::vector<std::string> lines = Split(std::string(text), '\n');
  size_t i = 0;
  auto next = [&]() -> const std::string* {
    while (i < lines.size() && lines[i].empty()) ++i;
    return i < lines.size() ? &lines[i++] : nullptr;
  };
  const std::string* line = next();
  if (!line) return Status::InvalidArgument("empty mlp model");
  std::vector<std::string> hdr = Split(*line, ' ');
  if (hdr.size() != 5 || hdr[0] != "mlp") return Status::InvalidArgument("bad mlp header");

  MlpRegressor model;
  size_t nf = static_cast<size_t>(std::atoll(hdr[1].c_str()));
  size_t nl = static_cast<size_t>(std::atoll(hdr[2].c_str()));
  PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(hdr[3], &model.y_mean_));
  PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(hdr[4], &model.y_std_));
  for (size_t f = 0; f < nf; ++f) {
    line = next();
    if (!line) return Status::InvalidArgument("truncated mlp norms");
    std::vector<std::string> tok = Split(*line, ' ');
    if (tok.size() != 3 || tok[0] != "norm") {
      return Status::InvalidArgument("bad mlp norm line");
    }
    double mean = 0.0, sd = 0.0;
    PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[1], &mean));
    PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[2], &sd));
    model.x_mean_.push_back(mean);
    model.x_std_.push_back(sd);
  }
  for (size_t l = 0; l < nl; ++l) {
    line = next();
    if (!line) return Status::InvalidArgument("truncated mlp layers");
    std::vector<std::string> tok = Split(*line, ' ');
    if (tok.size() != 3 || tok[0] != "layer") {
      return Status::InvalidArgument("bad mlp layer header");
    }
    Layer layer;
    layer.in = std::atoi(tok[1].c_str());
    layer.out = std::atoi(tok[2].c_str());
    if (layer.in < 1 || layer.out < 1) {
      return Status::InvalidArgument("bad mlp layer shape");
    }
    size_t nw = static_cast<size_t>(layer.in) * static_cast<size_t>(layer.out);
    layer.w.reserve(nw);
    for (size_t k = 0; k < nw; ++k) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated mlp weights");
      PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(*line, &layer.w.emplace_back()));
    }
    for (int k = 0; k < layer.out; ++k) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated mlp biases");
      PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(*line, &layer.b.emplace_back()));
    }
    model.layers_.push_back(std::move(layer));
  }
  model.fitted_ = true;
  *out = std::move(model);
  return Status::OK();
}

Result<MlpRegressor> MlpRegressor::FromText(const std::string& text) {
  MlpRegressor model;
  PHOEBE_RETURN_NOT_OK(FromText(std::string_view(text), &model));
  return model;
}

}  // namespace phoebe::ml
