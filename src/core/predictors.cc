#include "core/predictors.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

StageCostPredictor::StageCostPredictor(PredictorConfig config, Target target)
    : config_(std::move(config)), target_(target), featurizer_(config_.features) {}

std::unique_ptr<ml::Regressor> StageCostPredictor::MakeGeneral() const {
  if (config_.kind == ModelKind::kMlpGeneral) {
    return std::make_unique<ml::MlpRegressor>(config_.mlp);
  }
  return std::make_unique<ml::GbdtRegressor>(config_.gbdt);
}

Status StageCostPredictor::Train(const std::vector<workload::JobInstance>& jobs,
                                 const telemetry::HistoricStats& stats) {
  std::vector<TrainExample> examples;
  examples.reserve(jobs.size());
  for (const workload::JobInstance& job : jobs) examples.push_back({&job, &stats});
  return Train(examples);
}

Status StageCostPredictor::Train(const std::vector<TrainExample>& examples) {
  if (examples.empty()) return Status::InvalidArgument("no training jobs");

  // Assemble the dataset (one row per stage), each job featurized against
  // its own historic-stats view.
  ml::Dataset all;
  all.x = ml::FeatureMatrix(featurizer_.FeatureNames());
  std::map<int, std::vector<size_t>> rows_by_type;
  size_t row = 0;
  for (const TrainExample& ex : examples) {
    PHOEBE_CHECK(ex.job != nullptr && ex.stats != nullptr);
    const workload::JobInstance& job = *ex.job;
    for (size_t si = 0; si < job.graph.num_stages(); ++si, ++row) {
      all.x.AddRow(featurizer_.Features(job, static_cast<int>(si), *ex.stats));
      all.y.push_back(StageFeaturizer::CompressTarget(
          StageFeaturizer::TargetValue(job, static_cast<int>(si), target_)));
      rows_by_type[job.graph.stage(static_cast<dag::StageId>(si)).stage_type]
          .push_back(row);
    }
  }
  if (all.size() == 0) return Status::InvalidArgument("no training stages");

  // General model over all stages (always trained: fallback for rare types).
  general_ = MakeGeneral();
  PHOEBE_RETURN_NOT_OK(general_->Fit(all));

  auto calibrate = [&](const ml::Regressor& model,
                       const std::vector<size_t>* rows) -> double {
    double sum_true = 0.0, sum_pred = 0.0;
    auto fold = [&](size_t r) {
      sum_true += StageFeaturizer::ExpandTarget(all.y[r]);
      sum_pred += std::max(0.0, StageFeaturizer::ExpandTarget(model.Predict(all.x.Row(r))));
    };
    if (rows) {
      for (size_t r : *rows) fold(r);
    } else {
      for (size_t r = 0; r < all.size(); ++r) fold(r);
    }
    if (sum_pred <= 0.0) return 1.0;
    return std::clamp(sum_true / sum_pred, 0.5, 2.0);
  };
  general_calibration_ = calibrate(*general_, nullptr);

  per_type_.clear();
  calibration_.clear();
  if (config_.kind == ModelKind::kGbdtPerStageType) {
    for (const auto& [type, rows] : rows_by_type) {
      if (static_cast<int>(rows.size()) < config_.min_samples_per_type) continue;
      ml::Dataset sub = all.Subset(rows);
      ml::GbdtParams params = config_.gbdt;
      params.seed = config_.gbdt.seed + static_cast<uint64_t>(type) + 1;
      ml::GbdtRegressor model(params);
      PHOEBE_RETURN_NOT_OK(model.Fit(sub));
      calibration_[type] = calibrate(model, &rows);
      per_type_.emplace(type, std::move(model));
    }
  }
  trained_ = true;
  return Status::OK();
}

double StageCostPredictor::PredictStage(const workload::JobInstance& job, int stage_id,
                                        const telemetry::HistoricStats& stats) const {
  PHOEBE_CHECK_MSG(trained_, "PredictStage called before Train");
  std::vector<double> row = featurizer_.Features(job, stage_id, stats);
  int type = job.graph.stage(stage_id).stage_type;
  double y_log;
  double calibration;
  auto it = per_type_.find(type);
  if (it != per_type_.end()) {
    y_log = it->second.Predict(row);
    calibration = calibration_.at(type);
  } else {
    y_log = general_->Predict(row);
    calibration = general_calibration_;
  }
  return std::max(0.0, StageFeaturizer::ExpandTarget(y_log)) * calibration;
}

std::vector<double> StageCostPredictor::PredictJob(
    const workload::JobInstance& job, const telemetry::HistoricStats& stats) const {
  PredictScratch scratch;
  std::vector<double> out;
  PredictJobInto(job, stats, &scratch, &out);
  return out;
}

void StageCostPredictor::PredictJobInto(const workload::JobInstance& job,
                                        const telemetry::HistoricStats& stats,
                                        PredictScratch* scratch,
                                        std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(trained_, "PredictJob called before Train");
  featurizer_.JobMatrixInto(job, stats, &scratch->row, &scratch->matrix);
  scratch->types.clear();
  for (size_t si = 0; si < job.graph.num_stages(); ++si) {
    scratch->types.push_back(job.graph.stage(static_cast<int>(si)).stage_type);
  }
  PredictMatrixInto(scratch->matrix, scratch->types, scratch, out);
}

void StageCostPredictor::PredictMatrixInto(const ml::FeatureMatrix& m,
                                           std::span<const int> types,
                                           PredictScratch* scratch,
                                           std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(trained_, "PredictMatrixInto called before Train");
  PredictByServingModel(m, types, per_type_, *general_, &calibration_,
                        general_calibration_, scratch, out);
}

void PredictByServingModel(const ml::FeatureMatrix& m, std::span<const int> types,
                           const std::map<int, ml::GbdtRegressor>& per_type,
                           const ml::Regressor& general,
                           const std::map<int, double>* calibration,
                           double general_calibration, PredictScratch* scratch,
                           std::vector<double>* out) {
  const size_t nr = m.num_rows();
  PHOEBE_CHECK(types.size() == nr);
  out->resize(nr);
  scratch->call_rows.clear();
  auto finish = [](double y_log, double cal, bool calibrated) {
    const double y = std::max(0.0, StageFeaturizer::ExpandTarget(y_log));
    return calibrated ? y * cal : y;
  };

  // Counting sort of the rows into one bucket per serving model. Bucket b <
  // per_type.size() is the b-th per-type model (ascending stage type), the
  // last bucket the general model.
  std::vector<int>& keys = scratch->model_types;
  keys.clear();
  for (const auto& entry : per_type) keys.push_back(entry.first);
  auto bucket_of = [&keys](int type) {
    auto it = std::lower_bound(keys.begin(), keys.end(), type);
    return (it != keys.end() && *it == type) ? static_cast<size_t>(it - keys.begin())
                                             : keys.size();
  };
  const size_t nb = keys.size() + 1;
  std::vector<size_t>& bucket = scratch->bucket;
  bucket.assign(nb + 1, 0);
  for (int t : types) ++bucket[bucket_of(t) + 1];
  for (size_t b = 1; b <= nb; ++b) bucket[b] += bucket[b - 1];
  scratch->rows.resize(nr);
  for (size_t r = 0; r < nr; ++r) scratch->rows[bucket[bucket_of(types[r])]++] = r;
  // The fill advanced every bucket's start to the next bucket's; shift back.
  for (size_t b = nb; b-- > 1;) bucket[b] = bucket[b - 1];
  bucket[0] = 0;

  auto score = [&](const ml::Regressor& model, size_t b, double cal) {
    const std::span<const size_t> rows(scratch->rows.data() + bucket[b],
                                       bucket[b + 1] - bucket[b]);
    model.PredictRowsInto(m, rows, &scratch->y_log);
    scratch->call_rows.push_back(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      (*out)[rows[k]] = finish(scratch->y_log[k], cal, calibration != nullptr);
    }
  };
  size_t b = 0;
  for (const auto& [type, model] : per_type) {
    if (bucket[b] != bucket[b + 1]) {
      score(model, b, calibration ? calibration->at(type) : 1.0);
    }
    ++b;
  }
  if (bucket[b] != bucket[b + 1]) score(general, b, general_calibration);
}

namespace {

/// Collect lines [*i, ...) until a line equal to "end_model"; returns the
/// joined block and advances *i past the terminator.
Result<std::string> TakeModelBlock(const std::vector<std::string>& lines, size_t* i) {
  std::string block;
  while (*i < lines.size()) {
    if (lines[*i] == "end_model") {
      ++*i;
      return block;
    }
    block += lines[*i];
    block += '\n';
    ++*i;
  }
  return Status::InvalidArgument("unterminated model block");
}

}  // namespace

std::string StageCostPredictor::ToText() const {
  PHOEBE_CHECK_MSG(trained_, "ToText called before Train");
  std::string out = StrFormat(
      "stage_cost_predictor %d %d %zu %zu %.17g\n", static_cast<int>(target_),
      static_cast<int>(config_.kind), featurizer_.FeatureNames().size(),
      per_type_.size(), general_calibration_);
  out += "general_model\n";
  if (config_.kind == ModelKind::kMlpGeneral) {
    out += static_cast<const ml::MlpRegressor*>(general_.get())->ToText();
  } else {
    out += static_cast<const ml::GbdtRegressor*>(general_.get())->ToText();
  }
  out += "end_model\n";
  for (const auto& [type, model] : per_type_) {
    out += StrFormat("type %d %.17g\n", type, calibration_.at(type));
    out += model.ToText();
    out += "end_model\n";
  }
  return out;
}

Status StageCostPredictor::LoadFromText(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  size_t i = 0;
  while (i < lines.size() && lines[i].empty()) ++i;
  if (i >= lines.size()) return Status::InvalidArgument("empty predictor text");
  std::vector<std::string> hdr = Split(lines[i++], ' ');
  if (hdr.size() != 6 || hdr[0] != "stage_cost_predictor") {
    return Status::InvalidArgument("bad predictor header");
  }
  if (std::atoi(hdr[1].c_str()) != static_cast<int>(target_)) {
    return Status::FailedPrecondition("serialized target does not match");
  }
  if (std::atoi(hdr[2].c_str()) != static_cast<int>(config_.kind)) {
    return Status::FailedPrecondition("serialized model kind does not match");
  }
  if (static_cast<size_t>(std::atoll(hdr[3].c_str())) !=
      featurizer_.FeatureNames().size()) {
    return Status::FailedPrecondition("serialized feature width does not match");
  }
  size_t n_types = static_cast<size_t>(std::atoll(hdr[4].c_str()));
  double general_cal = std::atof(hdr[5].c_str());

  while (i < lines.size() && lines[i].empty()) ++i;
  if (i >= lines.size() || lines[i] != "general_model") {
    return Status::InvalidArgument("missing general_model block");
  }
  ++i;
  PHOEBE_ASSIGN_OR_RETURN(std::string general_block, TakeModelBlock(lines, &i));
  if (config_.kind == ModelKind::kMlpGeneral) {
    PHOEBE_ASSIGN_OR_RETURN(ml::MlpRegressor m, ml::MlpRegressor::FromText(general_block));
    general_ = std::make_unique<ml::MlpRegressor>(std::move(m));
  } else {
    PHOEBE_ASSIGN_OR_RETURN(ml::GbdtRegressor m,
                            ml::GbdtRegressor::FromText(general_block));
    general_ = std::make_unique<ml::GbdtRegressor>(std::move(m));
  }
  general_calibration_ = general_cal;

  per_type_.clear();
  calibration_.clear();
  for (size_t k = 0; k < n_types; ++k) {
    while (i < lines.size() && lines[i].empty()) ++i;
    if (i >= lines.size()) return Status::InvalidArgument("truncated type models");
    std::vector<std::string> th = Split(lines[i++], ' ');
    if (th.size() != 3 || th[0] != "type") {
      return Status::InvalidArgument("bad type model header");
    }
    int type = std::atoi(th[1].c_str());
    double cal = std::atof(th[2].c_str());
    PHOEBE_ASSIGN_OR_RETURN(std::string block, TakeModelBlock(lines, &i));
    PHOEBE_ASSIGN_OR_RETURN(ml::GbdtRegressor m, ml::GbdtRegressor::FromText(block));
    per_type_.emplace(type, std::move(m));
    calibration_[type] = cal;
  }
  trained_ = true;
  return Status::OK();
}

}  // namespace phoebe::core
