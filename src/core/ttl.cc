#include "core/ttl.h"

#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

TtlEstimator::TtlEstimator(TtlConfig config) : config_(std::move(config)) {}

std::vector<std::string> TtlEstimator::StackingFeatureNames() {
  return {"log_sim_ttl", "log_sim_tfs", "sim_position", "log_sim_job_end"};
}

std::vector<double> TtlEstimator::StackingFeatures(const SimulatedSchedule& sim,
                                                   dag::StageId stage) {
  std::vector<double> row;
  StackingFeaturesInto(sim, stage, &row);
  return row;
}

void TtlEstimator::StackingFeaturesInto(const SimulatedSchedule& sim,
                                        dag::StageId stage, std::vector<double>* row) {
  double ttl = sim.Ttl(stage);
  double tfs = sim.Tfs(stage);
  double pos = sim.job_end > 0.0 ? tfs / sim.job_end : 0.0;
  row->clear();
  row->push_back(std::log1p(std::max(0.0, ttl)));
  row->push_back(std::log1p(std::max(0.0, tfs)));
  row->push_back(pos);
  row->push_back(std::log1p(std::max(0.0, sim.job_end)));
}

void TtlEstimator::AppendStackingRows(const SimulatedSchedule& sim,
                                      std::vector<double>* row, ml::FeatureMatrix* m) {
  if (m->num_features() != 4) *m = ml::FeatureMatrix(StackingFeatureNames());
  for (size_t u = 0; u < sim.end.size(); ++u) {
    StackingFeaturesInto(sim, static_cast<dag::StageId>(u), row);
    m->AddRow(*row);
  }
}

Status TtlEstimator::Train(const std::vector<workload::JobInstance>& jobs,
                           const telemetry::HistoricStats& stats,
                           const StageCostPredictor& exec_predictor) {
  std::vector<TrainExample> examples;
  examples.reserve(jobs.size());
  for (const workload::JobInstance& job : jobs) examples.push_back({&job, &stats});
  return Train(examples, exec_predictor);
}

Status TtlEstimator::Train(const std::vector<TrainExample>& examples,
                           const StageCostPredictor& exec_predictor) {
  if (examples.empty()) return Status::InvalidArgument("no training jobs");
  PHOEBE_CHECK(exec_predictor.target() == Target::kExecSeconds);

  ml::Dataset all;
  all.x = ml::FeatureMatrix(StackingFeatureNames());
  std::vector<int> row_type;

  for (const TrainExample& ex : examples) {
    const workload::JobInstance& job = *ex.job;
    std::vector<double> exec = exec_predictor.PredictJob(job, *ex.stats);
    auto sim = SimulateSchedule(job.graph, exec);
    PHOEBE_RETURN_NOT_OK(sim.status());
    for (size_t si = 0; si < job.graph.num_stages(); ++si) {
      all.x.AddRow(StackingFeatures(*sim, static_cast<dag::StageId>(si)));
      all.y.push_back(std::log1p(std::max(0.0, job.truth[si].ttl)));
      row_type.push_back(job.graph.stage(static_cast<dag::StageId>(si)).stage_type);
    }
  }
  if (all.size() == 0) return Status::InvalidArgument("no training stages");

  general_ = std::make_unique<ml::GbdtRegressor>(config_.gbdt);
  PHOEBE_RETURN_NOT_OK(general_->Fit(all));

  std::map<int, std::vector<size_t>> rows_by_type;
  for (size_t r = 0; r < row_type.size(); ++r) {
    rows_by_type[row_type[r]].push_back(r);
  }
  per_type_.clear();
  for (const auto& [type, rows] : rows_by_type) {
    if (static_cast<int>(rows.size()) < config_.min_samples_per_type) continue;
    ml::GbdtParams params = config_.gbdt;
    params.seed = config_.gbdt.seed + static_cast<uint64_t>(type) + 7;
    ml::GbdtRegressor model(params);
    PHOEBE_RETURN_NOT_OK(model.Fit(all.Subset(rows)));
    per_type_.emplace(type, std::move(model));
  }
  trained_ = true;
  return Status::OK();
}

std::vector<double> TtlEstimator::Predict(const workload::JobInstance& job,
                                          const SimulatedSchedule& sim) const {
  PredictScratch scratch;
  std::vector<double> out;
  PredictInto(job, sim, &scratch, &out);
  return out;
}

void TtlEstimator::PredictInto(const workload::JobInstance& job,
                               const SimulatedSchedule& sim, PredictScratch* scratch,
                               std::vector<double>* out) const {
  const size_t ns = job.graph.num_stages();
  if (!trained_) {
    out->resize(ns);
    for (size_t si = 0; si < ns; ++si) {
      (*out)[si] = sim.Ttl(static_cast<dag::StageId>(si));
    }
    scratch->call_rows.clear();
    return;
  }
  scratch->matrix.ClearRows();
  AppendStackingRows(sim, &scratch->row, &scratch->matrix);
  scratch->types.clear();
  for (size_t si = 0; si < ns; ++si) {
    scratch->types.push_back(job.graph.stage(static_cast<dag::StageId>(si)).stage_type);
  }
  PredictMatrixInto(scratch->matrix, scratch->types, scratch, out);
}

void TtlEstimator::PredictMatrixInto(const ml::FeatureMatrix& m,
                                     std::span<const int> types,
                                     PredictScratch* scratch,
                                     std::vector<double>* out) const {
  PHOEBE_CHECK_MSG(trained_, "TtlEstimator::PredictMatrixInto called before Train");
  PredictByServingModel(m, types, per_type_, *general_, /*calibration=*/nullptr, 1.0,
                        config_.batch_inference, scratch, out);
}

std::string TtlEstimator::ToText() const {
  PHOEBE_CHECK_MSG(trained_, "ToText called before Train");
  std::string out = StrFormat("ttl_estimator %zu\n", per_type_.size());
  out += "general_model\n";
  out += general_->ToText();
  out += "end_model\n";
  for (const auto& [type, model] : per_type_) {
    out += StrFormat("type %d\n", type);
    out += model.ToText();
    out += "end_model\n";
  }
  return out;
}

Status TtlEstimator::LoadFromText(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  size_t i = 0;
  auto take_block = [&]() -> Result<std::string> {
    std::string block;
    while (i < lines.size()) {
      if (lines[i] == "end_model") {
        ++i;
        return block;
      }
      block += lines[i];
      block += '\n';
      ++i;
    }
    return Status::InvalidArgument("unterminated model block");
  };

  while (i < lines.size() && lines[i].empty()) ++i;
  if (i >= lines.size()) return Status::InvalidArgument("empty ttl estimator text");
  std::vector<std::string> hdr = Split(lines[i++], ' ');
  if (hdr.size() != 2 || hdr[0] != "ttl_estimator") {
    return Status::InvalidArgument("bad ttl_estimator header");
  }
  size_t n_types = static_cast<size_t>(std::atoll(hdr[1].c_str()));

  while (i < lines.size() && lines[i].empty()) ++i;
  if (i >= lines.size() || lines[i] != "general_model") {
    return Status::InvalidArgument("missing general_model block");
  }
  ++i;
  PHOEBE_ASSIGN_OR_RETURN(std::string general_block, take_block());
  PHOEBE_ASSIGN_OR_RETURN(ml::GbdtRegressor g,
                          ml::GbdtRegressor::FromText(general_block));
  general_ = std::make_unique<ml::GbdtRegressor>(std::move(g));

  per_type_.clear();
  for (size_t k = 0; k < n_types; ++k) {
    while (i < lines.size() && lines[i].empty()) ++i;
    if (i >= lines.size()) return Status::InvalidArgument("truncated type models");
    std::vector<std::string> th = Split(lines[i++], ' ');
    if (th.size() != 2 || th[0] != "type") {
      return Status::InvalidArgument("bad type model header");
    }
    int type = std::atoi(th[1].c_str());
    PHOEBE_ASSIGN_OR_RETURN(std::string block, take_block());
    PHOEBE_ASSIGN_OR_RETURN(ml::GbdtRegressor m, ml::GbdtRegressor::FromText(block));
    per_type_.emplace(type, std::move(m));
  }
  trained_ = true;
  return Status::OK();
}

}  // namespace phoebe::core
