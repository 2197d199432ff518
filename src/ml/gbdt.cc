#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/strings.h"

namespace phoebe::ml {

Status GbdtParams::Validate() const {
  if (num_trees < 1) return Status::InvalidArgument("num_trees must be >= 1");
  if (num_leaves < 2) return Status::InvalidArgument("num_leaves must be >= 2");
  if (learning_rate <= 0.0) return Status::InvalidArgument("learning_rate must be > 0");
  if (max_bins < 2 || max_bins > 255)
    return Status::InvalidArgument("max_bins must be in [2, 255]");
  if (min_data_in_leaf < 1) return Status::InvalidArgument("min_data_in_leaf must be >= 1");
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (subsample <= 0.0 || subsample > 1.0)
    return Status::InvalidArgument("subsample must be in (0, 1]");
  if (feature_fraction <= 0.0 || feature_fraction > 1.0)
    return Status::InvalidArgument("feature_fraction must be in (0, 1]");
  if (early_stopping_rounds < 0)
    return Status::InvalidArgument("early_stopping_rounds must be >= 0");
  if (early_stopping_rounds > 0 &&
      (validation_fraction <= 0.0 || validation_fraction >= 1.0))
    return Status::InvalidArgument("validation_fraction must be in (0, 1)");
  if (objective == GbdtObjective::kQuantile &&
      (quantile_alpha <= 0.0 || quantile_alpha >= 1.0))
    return Status::InvalidArgument("quantile_alpha must be in (0, 1)");
  return Status::OK();
}

double Tree::Predict(std::span<const double> x) const {
  PHOEBE_CHECK(!nodes.empty());
  int idx = 0;
  while (!nodes[static_cast<size_t>(idx)].is_leaf()) {
    const TreeNode& n = nodes[static_cast<size_t>(idx)];
    idx = (x[static_cast<size_t>(n.feature)] <= n.threshold) ? n.left : n.right;
  }
  return nodes[static_cast<size_t>(idx)].value;
}

namespace {

/// Per-feature quantile binning: bin_edges[f][b] is the upper edge of bin b;
/// a value v maps to the first bin whose edge is >= v.
struct Binner {
  std::vector<std::vector<double>> edges;  // per feature, ascending

  uint8_t BinOf(size_t feature, double v) const {
    const auto& e = edges[feature];
    // upper_bound over edges: index of first edge > v is the bin past v's.
    size_t b = static_cast<size_t>(
        std::lower_bound(e.begin(), e.end(), v) - e.begin());
    return static_cast<uint8_t>(std::min(b, e.size()));
  }
};

Binner BuildBinner(const FeatureMatrix& x, int max_bins) {
  const size_t nf = x.num_features();
  const size_t nr = x.num_rows();
  Binner binner;
  binner.edges.resize(nf);
  std::vector<double> col(nr);
  for (size_t f = 0; f < nf; ++f) {
    for (size_t r = 0; r < nr; ++r) col[r] = x.At(r, f);
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
    auto& edges = binner.edges[f];
    if (col.size() <= static_cast<size_t>(max_bins)) {
      // One bin per distinct value; edges between consecutive values.
      for (size_t i = 0; i + 1 < col.size(); ++i)
        edges.push_back(0.5 * (col[i] + col[i + 1]));
    } else {
      // Quantile edges over distinct values.
      for (int b = 1; b < max_bins; ++b) {
        size_t idx = static_cast<size_t>(
            static_cast<double>(b) * static_cast<double>(col.size()) / max_bins);
        idx = std::min(idx, col.size() - 1);
        double edge = col[idx];
        if (edges.empty() || edge > edges.back()) edges.push_back(edge);
      }
    }
  }
  return binner;
}

struct LeafInfo {
  int node = -1;                 // index into tree.nodes
  std::vector<uint32_t> rows;    // training rows in this leaf
  double sum_g = 0.0;
  double best_gain = -1.0;
  int best_feature = -1;
  int best_bin = -1;             // split: bin index b => left has bins <= b
  double best_left_g = 0.0;
  int best_left_count = 0;
};

}  // namespace

GbdtRegressor::GbdtRegressor(GbdtParams params) : params_(params) {}

Status GbdtRegressor::Fit(const Dataset& data) {
  PHOEBE_RETURN_NOT_OK(params_.Validate());
  PHOEBE_RETURN_NOT_OK(data.Validate());
  if (data.size() == 0) return Status::InvalidArgument("empty training set");

  best_validation_mse_ = 0.0;
  if (params_.early_stopping_rounds > 0) {
    // Deterministic holdout split for early stopping.
    Rng rng(params_.seed ^ 0x9E5Fu);
    Dataset shuffled = data;
    {
      std::vector<size_t> idx(data.size());
      std::iota(idx.begin(), idx.end(), 0);
      rng.Shuffle(&idx);
      shuffled = data.Subset(idx);
    }
    size_t n_valid = std::max<size_t>(
        1, static_cast<size_t>(params_.validation_fraction *
                               static_cast<double>(data.size())));
    if (n_valid >= data.size()) {
      return Status::InvalidArgument("not enough rows for a validation split");
    }
    std::vector<size_t> train_rows, valid_rows;
    for (size_t r = 0; r < shuffled.size(); ++r) {
      (r < n_valid ? valid_rows : train_rows).push_back(r);
    }
    Dataset valid = shuffled.Subset(valid_rows);
    Dataset train = shuffled.Subset(train_rows);
    return FitCore(train, &valid);
  }
  return FitCore(data, nullptr);
}

Status GbdtRegressor::FitCore(const Dataset& data, const Dataset* valid) {
  const size_t nr = data.size();
  const size_t nf = data.x.num_features();
  num_features_ = nf;
  trees_.clear();
  gain_by_feature_.assign(nf, 0.0);

  // Base score: target mean (squared loss) or the target quantile.
  if (params_.objective == GbdtObjective::kQuantile) {
    std::vector<double> sorted = data.y;
    std::sort(sorted.begin(), sorted.end());
    size_t q = static_cast<size_t>(params_.quantile_alpha *
                                   static_cast<double>(sorted.size()));
    base_score_ = sorted[std::min(q, sorted.size() - 1)];
  } else {
    base_score_ = std::accumulate(data.y.begin(), data.y.end(), 0.0) /
                  static_cast<double>(nr);
  }

  Binner binner = BuildBinner(data.x, params_.max_bins);

  // Pre-bin the matrix, feature-major, for cache-friendly histogram builds.
  std::vector<std::vector<uint8_t>> binned(nf, std::vector<uint8_t>(nr));
  std::vector<int> bins_per_feature(nf);
  for (size_t f = 0; f < nf; ++f) {
    bins_per_feature[f] = static_cast<int>(binner.edges[f].size()) + 1;
    for (size_t r = 0; r < nr; ++r) binned[f][r] = binner.BinOf(f, data.x.At(r, f));
  }

  std::vector<double> pred(nr, base_score_);
  std::vector<double> grad(nr);  // squared loss: g = pred - y (h == 1)
  Rng rng(params_.seed);

  // Early-stopping state over the holdout set.
  std::vector<double> vpred;
  double best_mse = 0.0;
  size_t best_round = 0;
  int stall_rounds = 0;
  if (valid) vpred.assign(valid->size(), base_score_);

  auto leaf_value = [&](double sum_g, int count) {
    return -sum_g / (static_cast<double>(count) + params_.lambda) *
           params_.learning_rate;
  };

  auto split_gain = [&](double gl, int nl, double gr, int nrt, double g, int n) {
    auto score = [&](double gg, int cc) {
      return gg * gg / (static_cast<double>(cc) + params_.lambda);
    };
    return 0.5 * (score(gl, nl) + score(gr, nrt) - score(g, n));
  };

  // Scratch for the active feature subset of each tree.
  std::vector<size_t> all_features(nf);
  std::iota(all_features.begin(), all_features.end(), 0);

  // Loss gradients: squared loss g = pred - y; pinball loss at alpha has
  // g = (1 - alpha) when pred > y and g = -alpha otherwise.
  const bool quantile = params_.objective == GbdtObjective::kQuantile;
  const double alpha = params_.quantile_alpha;
  auto loss_grad = [&](double prediction, double target) {
    if (!quantile) return prediction - target;
    return prediction > target ? (1.0 - alpha) : -alpha;
  };
  auto point_loss = [&](double prediction, double target) {
    if (!quantile) {
      double e = prediction - target;
      return e * e;
    }
    double d = target - prediction;
    return d >= 0 ? alpha * d : (alpha - 1.0) * d;
  };

  for (int t = 0; t < params_.num_trees; ++t) {
    for (size_t r = 0; r < nr; ++r) grad[r] = loss_grad(pred[r], data.y[r]);

    // Row subsample.
    std::vector<uint32_t> root_rows;
    if (params_.subsample >= 1.0) {
      root_rows.resize(nr);
      std::iota(root_rows.begin(), root_rows.end(), 0u);
    } else {
      root_rows.reserve(static_cast<size_t>(params_.subsample * static_cast<double>(nr)) + 1);
      for (size_t r = 0; r < nr; ++r)
        if (rng.Bernoulli(params_.subsample)) root_rows.push_back(static_cast<uint32_t>(r));
      if (root_rows.empty()) root_rows.push_back(static_cast<uint32_t>(rng.UniformInt(
          0, static_cast<int64_t>(nr) - 1)));
    }

    // Feature subsample.
    std::vector<size_t> features = all_features;
    if (params_.feature_fraction < 1.0) {
      rng.Shuffle(&features);
      size_t keep = std::max<size_t>(
          1, static_cast<size_t>(params_.feature_fraction * static_cast<double>(nf)));
      features.resize(keep);
      std::sort(features.begin(), features.end());
    }

    Tree tree;
    tree.nodes.push_back(TreeNode{});  // root placeholder (leaf for now)

    auto find_best_split = [&](LeafInfo* leaf) {
      leaf->best_gain = -1.0;
      const int n = static_cast<int>(leaf->rows.size());
      if (n < 2 * params_.min_data_in_leaf) return;
      for (size_t f : features) {
        const int nb = bins_per_feature[f];
        if (nb < 2) continue;
        thread_local std::vector<double> hg;
        thread_local std::vector<int> hc;
        hg.assign(static_cast<size_t>(nb), 0.0);
        hc.assign(static_cast<size_t>(nb), 0);
        const uint8_t* fb = binned[f].data();
        for (uint32_t r : leaf->rows) {
          hg[fb[r]] += grad[r];
          ++hc[fb[r]];
        }
        double gl = 0.0;
        int nl = 0;
        for (int b = 0; b + 1 < nb; ++b) {
          gl += hg[static_cast<size_t>(b)];
          nl += hc[static_cast<size_t>(b)];
          int nrt = n - nl;
          if (nl < params_.min_data_in_leaf) continue;
          if (nrt < params_.min_data_in_leaf) break;
          double gain = split_gain(gl, nl, leaf->sum_g - gl, nrt, leaf->sum_g, n);
          if (gain > leaf->best_gain) {
            leaf->best_gain = gain;
            leaf->best_feature = static_cast<int>(f);
            leaf->best_bin = b;
            leaf->best_left_g = gl;
            leaf->best_left_count = nl;
          }
        }
      }
    };

    std::vector<LeafInfo> leaves;
    {
      LeafInfo root;
      root.node = 0;
      root.rows = std::move(root_rows);
      root.sum_g = 0.0;
      for (uint32_t r : root.rows) root.sum_g += grad[r];
      find_best_split(&root);
      leaves.push_back(std::move(root));
    }

    int n_leaves = 1;
    while (n_leaves < params_.num_leaves) {
      // Pick the leaf with the highest gain.
      int best = -1;
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (leaves[i].best_gain > params_.min_gain &&
            (best < 0 || leaves[i].best_gain > leaves[static_cast<size_t>(best)].best_gain)) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;

      LeafInfo leaf = std::move(leaves[static_cast<size_t>(best)]);
      leaves.erase(leaves.begin() + best);

      gain_by_feature_[static_cast<size_t>(leaf.best_feature)] += leaf.best_gain;

      // Materialize the split.
      const size_t f = static_cast<size_t>(leaf.best_feature);
      const auto& edges = binner.edges[f];
      double threshold = edges[static_cast<size_t>(leaf.best_bin)];

      LeafInfo left, right;
      left.rows.reserve(static_cast<size_t>(leaf.best_left_count));
      right.rows.reserve(leaf.rows.size() - static_cast<size_t>(leaf.best_left_count));
      for (uint32_t r : leaf.rows) {
        if (binned[f][r] <= leaf.best_bin) left.rows.push_back(r);
        else right.rows.push_back(r);
      }
      left.sum_g = leaf.best_left_g;
      right.sum_g = leaf.sum_g - leaf.best_left_g;

      TreeNode& parent = tree.nodes[static_cast<size_t>(leaf.node)];
      parent.feature = leaf.best_feature;
      parent.threshold = threshold;
      parent.left = static_cast<int>(tree.nodes.size());
      parent.right = parent.left + 1;
      left.node = parent.left;
      right.node = parent.right;
      tree.nodes.push_back(TreeNode{});
      tree.nodes.push_back(TreeNode{});

      find_best_split(&left);
      find_best_split(&right);
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++n_leaves;
    }

    // Finalize leaf values and update predictions.
    for (const LeafInfo& leaf : leaves) {
      double v = leaf_value(leaf.sum_g, static_cast<int>(leaf.rows.size()));
      tree.nodes[static_cast<size_t>(leaf.node)].value = v;
      for (uint32_t r : leaf.rows) pred[r] += v;
    }
    // Rows not in the subsample still need their predictions refreshed for
    // the next round's gradients.
    if (params_.subsample < 1.0) {
      std::vector<bool> covered(nr, false);
      for (const LeafInfo& leaf : leaves)
        for (uint32_t r : leaf.rows) covered[r] = true;
      for (size_t r = 0; r < nr; ++r)
        if (!covered[r]) pred[r] += tree.Predict(data.x.Row(r));
    }
    trees_.push_back(std::move(tree));

    if (valid) {
      double mse = 0.0;
      for (size_t r = 0; r < valid->size(); ++r) {
        vpred[r] += trees_.back().Predict(valid->x.Row(r));
        mse += point_loss(vpred[r], valid->y[r]);
      }
      mse /= static_cast<double>(valid->size());
      if (trees_.size() == 1 || mse < best_mse - 1e-12) {
        best_mse = mse;
        best_round = trees_.size();
        stall_rounds = 0;
      } else if (++stall_rounds >= params_.early_stopping_rounds) {
        break;
      }
    }
  }

  if (valid) {
    trees_.resize(best_round);  // keep the best round only
    best_validation_mse_ = best_mse;
  }
  RebuildFlatForest();
  fitted_ = true;
  return Status::OK();
}

void GbdtRegressor::RebuildFlatForest() {
  flat_ = FlatForest{};
  size_t total = 0;
  for (const Tree& t : trees_) total += t.nodes.size();
  flat_.feature.reserve(total);
  flat_.threshold.reserve(total);
  flat_.left.reserve(total);
  flat_.right.reserve(total);
  flat_.value.reserve(total);
  flat_.root.reserve(trees_.size());
  for (const Tree& t : trees_) {
    const int32_t base = static_cast<int32_t>(flat_.feature.size());
    flat_.root.push_back(base);
    for (const TreeNode& n : t.nodes) {
      flat_.feature.push_back(n.feature);
      flat_.threshold.push_back(n.threshold);
      flat_.left.push_back(n.is_leaf() ? -1 : base + n.left);
      flat_.right.push_back(n.is_leaf() ? -1 : base + n.right);
      flat_.value.push_back(n.value);
    }
  }
}

void GbdtRegressor::PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                                    std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(fitted_, "PredictRowsInto called before Fit");
  const size_t nr = rows.size();
  out->assign(nr, base_score_);
  if (nr == 0) return;
  PHOEBE_CHECK(x.num_features() == num_features_);

  const int32_t* feat = flat_.feature.data();
  const double* thresh = flat_.threshold.data();
  const int32_t* left = flat_.left.data();
  const int32_t* right = flat_.right.data();
  const double* value = flat_.value.data();

  constexpr size_t kRowBlock = 64;
  const double* row_ptr[kRowBlock];
  for (size_t b0 = 0; b0 < nr; b0 += kRowBlock) {
    const size_t bn = std::min(kRowBlock, nr - b0);
    for (size_t k = 0; k < bn; ++k) row_ptr[k] = x.Row(rows[b0 + k]).data();
    for (int32_t r0 : flat_.root) {
      for (size_t k = 0; k < bn; ++k) {
        int32_t idx = r0;
        int32_t f;
        while ((f = feat[idx]) >= 0) {
          idx = row_ptr[k][f] <= thresh[idx] ? left[idx] : right[idx];
        }
        (*out)[b0 + k] += value[idx];
      }
    }
  }
}

double GbdtRegressor::Predict(std::span<const double> features) const {
  PHOEBE_CHECK_MSG(fitted_, "Predict called before Fit");
  PHOEBE_CHECK(features.size() == num_features_);
  double out = base_score_;
  for (const Tree& t : trees_) out += t.Predict(features);
  return out;
}

std::vector<double> GbdtRegressor::FeatureImportanceGain() const {
  double total = std::accumulate(gain_by_feature_.begin(), gain_by_feature_.end(), 0.0);
  std::vector<double> out = gain_by_feature_;
  if (total > 0.0) {
    for (double& v : out) v /= total;
  }
  return out;
}

std::string GbdtRegressor::ToText() const {
  PHOEBE_CHECK_MSG(fitted_, "ToText called before Fit");
  std::string out;
  StrAppend(&out, "gbdt ", num_features_, ' ', trees_.size(), ' ', base_score_, '\n');
  for (const Tree& t : trees_) {
    StrAppend(&out, "tree ", t.nodes.size(), '\n');
    for (const TreeNode& n : t.nodes) {
      StrAppend(&out, "node ", n.feature, ' ', n.threshold, ' ', n.left, ' ', n.right, ' ',
                n.value, '\n');
    }
  }
  return out;
}

Status GbdtRegressor::FromText(std::string_view text, GbdtRegressor* out) {
  PHOEBE_CHECK(out != nullptr);
  GbdtRegressor model;
  std::vector<std::string> lines = Split(std::string(text), '\n');
  size_t i = 0;
  auto next = [&]() -> const std::string* {
    while (i < lines.size() && lines[i].empty()) ++i;
    return i < lines.size() ? &lines[i++] : nullptr;
  };

  const std::string* line = next();
  if (!line) return Status::InvalidArgument("empty model text");
  {
    std::vector<std::string> tok = Split(*line, ' ');
    if (tok.size() != 4 || tok[0] != "gbdt")
      return Status::InvalidArgument("bad gbdt header");
    model.num_features_ = static_cast<size_t>(std::atoll(tok[1].c_str()));
    size_t n_trees = static_cast<size_t>(std::atoll(tok[2].c_str()));
    PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[3], &model.base_score_));
    model.trees_.reserve(n_trees);
    for (size_t t = 0; t < n_trees; ++t) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated model: missing tree");
      std::vector<std::string> th = Split(*line, ' ');
      if (th.size() != 2 || th[0] != "tree")
        return Status::InvalidArgument("bad tree header");
      size_t n_nodes = static_cast<size_t>(std::atoll(th[1].c_str()));
      Tree tree;
      tree.nodes.reserve(n_nodes);
      for (size_t k = 0; k < n_nodes; ++k) {
        line = next();
        if (!line) return Status::InvalidArgument("truncated model: missing node");
        std::vector<std::string> tn = Split(*line, ' ');
        if (tn.size() != 6 || tn[0] != "node")
          return Status::InvalidArgument("bad node line");
        TreeNode n;
        n.feature = std::atoi(tn[1].c_str());
        PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tn[2], &n.threshold));
        n.left = std::atoi(tn[3].c_str());
        n.right = std::atoi(tn[4].c_str());
        PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tn[5], &n.value));
        tree.nodes.push_back(n);
      }
      model.trees_.push_back(std::move(tree));
    }
  }
  model.gain_by_feature_.assign(model.num_features_, 0.0);
  model.RebuildFlatForest();
  model.fitted_ = true;
  *out = std::move(model);
  return Status::OK();
}

Result<GbdtRegressor> GbdtRegressor::FromText(const std::string& text) {
  GbdtRegressor model;
  PHOEBE_RETURN_NOT_OK(FromText(std::string_view(text), &model));
  return model;
}

}  // namespace phoebe::ml
