#include "core/features.h"

#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

StageFeaturizer::StageFeaturizer(FeatureConfig config)
    : config_(config), hasher_(config.text_dims, 3, 4), names_(BuildFeatureNames()) {}

std::vector<std::string> StageFeaturizer::BuildFeatureNames() const {
  std::vector<std::string> names;
  if (config_.query_optimizer) {
    names.insert(names.end(),
                 {"log_est_cost", "log_est_input_cardinality", "log_est_exclusive_cost",
                  "log_est_cardinality", "log_est_output_bytes", "log_num_tasks"});
  }
  if (config_.historic) {
    names.insert(names.end(), {"log_hist_exclusive_time", "log_hist_output_bytes",
                               "log_hist_support", "hist_exact"});
  }
  if (config_.stage_type_id) names.push_back("stage_type_id");
  if (config_.text) {
    for (size_t d = 0; d < config_.text_dims; ++d)
      names.push_back(StrFormat("jobname_h%zu", d));
    for (size_t d = 0; d < config_.text_dims; ++d)
      names.push_back(StrFormat("input_h%zu", d));
  }
  return names;
}

double StageFeaturizer::CompressTarget(double y) { return std::log1p(std::max(0.0, y)); }
double StageFeaturizer::ExpandTarget(double y_log) { return std::expm1(y_log); }

std::vector<double> StageFeaturizer::Features(const workload::JobInstance& job,
                                              int stage_id,
                                              const telemetry::HistoricStats& stats) const {
  std::vector<double> row;
  FeaturesInto(job, stage_id, stats, &row);
  return row;
}

void StageFeaturizer::FeaturesInto(const workload::JobInstance& job, int stage_id,
                                   const telemetry::HistoricStats& stats,
                                   std::vector<double>* row) const {
  const size_t si = static_cast<size_t>(stage_id);
  PHOEBE_CHECK(si < job.graph.num_stages());
  const workload::StageEstimates& e = job.est[si];
  const dag::Stage& s = job.graph.stage(stage_id);

  row->clear();
  auto lg = [](double v) { return std::log1p(std::max(0.0, v)); };

  if (config_.query_optimizer) {
    row->push_back(lg(e.est_cost));
    row->push_back(lg(e.est_input_cardinality));
    row->push_back(lg(e.est_exclusive_cost));
    row->push_back(lg(e.est_cardinality));
    row->push_back(lg(e.est_output_bytes));
    row->push_back(lg(static_cast<double>(s.num_tasks)));
  }
  if (config_.historic) {
    telemetry::HistoricStats::Entry h = stats.Get(job.template_id, s.stage_type);
    row->push_back(lg(h.avg_exclusive_time));
    row->push_back(lg(h.avg_output_bytes));
    row->push_back(lg(static_cast<double>(h.support)));
    row->push_back(stats.HasExact(job.template_id, s.stage_type) ? 1.0 : 0.0);
  }
  if (config_.stage_type_id) row->push_back(static_cast<double>(s.stage_type));
  if (config_.text) {
    hasher_.EmbedInto(job.job_name, row);
    hasher_.EmbedInto(job.norm_input_name, row);
  }
}

ml::FeatureMatrix StageFeaturizer::JobMatrix(const workload::JobInstance& job,
                                             const telemetry::HistoricStats& stats) const {
  ml::FeatureMatrix m;
  std::vector<double> row;
  JobMatrixInto(job, stats, &row, &m);
  return m;
}

void StageFeaturizer::JobMatrixInto(const workload::JobInstance& job,
                                    const telemetry::HistoricStats& stats,
                                    std::vector<double>* row,
                                    ml::FeatureMatrix* m) const {
  m->ClearRows();
  AppendJobRows(job, stats, row, m);
}

void StageFeaturizer::AppendJobRows(const workload::JobInstance& job,
                                    const telemetry::HistoricStats& stats,
                                    std::vector<double>* row,
                                    ml::FeatureMatrix* m) const {
  // Install the schema once; afterwards only the row storage is recycled.
  if (m->num_features() != names_.size()) *m = ml::FeatureMatrix(names_);
  for (size_t si = 0; si < job.graph.num_stages(); ++si) {
    FeaturesInto(job, static_cast<int>(si), stats, row);
    m->AddRow(*row);
  }
}

double StageFeaturizer::TargetValue(const workload::JobInstance& job, int stage_id,
                                    Target target) {
  const workload::StageTruth& t = job.truth[static_cast<size_t>(stage_id)];
  switch (target) {
    case Target::kExecSeconds: return t.exec_seconds;
    case Target::kOutputBytes: return t.output_bytes;
  }
  return 0.0;
}

ml::Dataset StageFeaturizer::BuildDataset(const std::vector<workload::JobInstance>& jobs,
                                          const telemetry::HistoricStats& stats,
                                          Target target) const {
  ml::Dataset ds;
  ds.x = ml::FeatureMatrix(FeatureNames());
  for (const workload::JobInstance& job : jobs) {
    for (size_t si = 0; si < job.graph.num_stages(); ++si) {
      std::vector<double> row = Features(job, static_cast<int>(si), stats);
      ds.x.AddRow(row);
      ds.y.push_back(CompressTarget(TargetValue(job, static_cast<int>(si), target)));
    }
  }
  return ds;
}

}  // namespace phoebe::core
