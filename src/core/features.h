// Stage featurization: Table 1 of the paper.
//
// Three feature groups feed the stage-level cost models:
//   1. Query-optimizer features: estimated (cumulative) cost, estimated input
//      cardinality, estimated exclusive cost, estimated cardinality of the
//      stage's last operator — all from the compile-time estimate channel.
//   2. Historic statistics: average exclusive time and output size for the
//      (job template, stage type) combination, from the workload repository.
//   3. Text features: hashed character n-gram embeddings of the normalized
//      job name and input path.
// Skewed magnitudes are log1p-compressed. Truth values are never used.
#pragma once

#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/text.h"
#include "telemetry/repository.h"
#include "workload/job_instance.h"

namespace phoebe::core {

/// \brief Which feature groups to emit (ablations toggle these).
struct FeatureConfig {
  bool query_optimizer = true;
  bool historic = true;
  bool text = false;          ///< only the DNN benchmark uses text features
  bool stage_type_id = false; ///< ablation: stage type as a plain feature
  size_t text_dims = 12;      ///< hash buckets per text column

  /// Equal configs emit identical rows for every stage, so one matrix can
  /// feed several predictors (the day-batched decide path shares it).
  bool operator==(const FeatureConfig&) const = default;
};

/// \brief Prediction targets for the stage cost models.
enum class Target {
  kExecSeconds,   ///< average task latency of the stage
  kOutputBytes,   ///< output size of the last operator
};

/// \brief Builds feature rows for stages of job instances.
class StageFeaturizer {
 public:
  explicit StageFeaturizer(FeatureConfig config = {});

  const FeatureConfig& config() const { return config_; }
  /// Names of the emitted features, in row order (computed once at
  /// construction; this returns a copy).
  std::vector<std::string> FeatureNames() const { return names_; }
  /// Emitted row width (== FeatureNames().size()), without the copy.
  size_t num_features() const { return names_.size(); }

  /// Feature row for stage `stage_id` of `job`, using `stats` for the
  /// historic group. Row length always equals FeatureNames().size().
  std::vector<double> Features(const workload::JobInstance& job, int stage_id,
                               const telemetry::HistoricStats& stats) const;

  /// Same row written into caller-owned storage (cleared first; capacity is
  /// reused, so a warm caller allocates nothing — except under
  /// FeatureConfig::text, whose n-gram hashing builds a lowercase copy).
  void FeaturesInto(const workload::JobInstance& job, int stage_id,
                    const telemetry::HistoricStats& stats,
                    std::vector<double>* row) const;

  /// Feature rows for *all* stages of `job` as one matrix (row i = stage i),
  /// ready for a single Regressor::PredictBatch call. Row i is exactly
  /// Features(job, i, stats).
  ml::FeatureMatrix JobMatrix(const workload::JobInstance& job,
                              const telemetry::HistoricStats& stats) const;

  /// Same matrix filled into caller-owned storage: `m` keeps its schema and
  /// row capacity across calls (set up on first use), so repeated fills on a
  /// warm matrix perform no allocation. `row` is the per-stage staging
  /// buffer. Rows are bit-identical to JobMatrix.
  void JobMatrixInto(const workload::JobInstance& job,
                     const telemetry::HistoricStats& stats,
                     std::vector<double>* row, ml::FeatureMatrix* m) const;

  /// Append `job`'s stage rows to `m` (installing the schema if `m` has
  /// none): the day-batched decide path stacks every job of a day into one
  /// matrix this way. Rows are bit-identical to JobMatrix's.
  void AppendJobRows(const workload::JobInstance& job,
                     const telemetry::HistoricStats& stats,
                     std::vector<double>* row, ml::FeatureMatrix* m) const;

  /// Build a training dataset over whole days: one row per stage, with the
  /// target in *log1p space* (models are trained on log1p(y); use
  /// ExpandTarget to go back).
  ml::Dataset BuildDataset(const std::vector<workload::JobInstance>& jobs,
                           const telemetry::HistoricStats& stats, Target target) const;

  /// Ground-truth target value (origin scale) for a stage.
  static double TargetValue(const workload::JobInstance& job, int stage_id,
                            Target target);

  /// Transform between model space (log1p) and origin space.
  static double CompressTarget(double y) ;
  static double ExpandTarget(double y_log);

 private:
  std::vector<std::string> BuildFeatureNames() const;

  FeatureConfig config_;
  ml::TextHasher hasher_;
  std::vector<std::string> names_;  ///< built once; FeatureNames() copies it
};

}  // namespace phoebe::core
