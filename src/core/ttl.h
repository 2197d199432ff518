// Time-to-live estimator (paper §4.2): job runtime simulator + per-stage-type
// stacking model.
//
// The simulator (core/simulator.h) assumes strict stage boundaries and hence
// over-estimates TTL for pipelined stage types. The stacking model corrects
// that bias: per stage type, a small GBDT maps (simulated TTL, simulated TFS)
// — the "position" of the stage within the job — to the true TTL.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/predictors.h"
#include "core/simulator.h"
#include "ml/gbdt.h"

namespace phoebe::core {

/// \brief Configuration of the TTL stacking model.
struct TtlConfig {
  ml::GbdtParams gbdt = [] {
    ml::GbdtParams p;
    p.num_trees = 60;
    p.num_leaves = 15;
    p.min_data_in_leaf = 30;
    return p;
  }();
  int min_samples_per_type = 100;
};

/// \brief Stacked TTL estimator.
class TtlEstimator {
 public:
  explicit TtlEstimator(TtlConfig config = {});

  /// Train the stacking models. For each training job, stage execution times
  /// are predicted by `exec_predictor` (so the stacking model sees the same
  /// input distribution it will see at inference time), the schedule is
  /// simulated, and true TTLs are the regression targets.
  Status Train(const std::vector<TrainExample>& examples,
               const StageCostPredictor& exec_predictor);

  /// Convenience: all jobs share one historic-stats view.
  Status Train(const std::vector<workload::JobInstance>& jobs,
               const telemetry::HistoricStats& stats,
               const StageCostPredictor& exec_predictor);

  bool trained() const { return trained_; }
  size_t num_type_models() const { return per_type_.size(); }

  /// Stacked TTL predictions for every stage given the simulated schedule.
  /// Falls back to the raw simulator TTL if no model covers a stage type.
  /// Stages are grouped by stacking model and scored with one
  /// PredictRowsInto call per group.
  std::vector<double> Predict(const workload::JobInstance& job,
                              const SimulatedSchedule& sim) const;

  /// Predict into caller-owned buffers (bit-identical to Predict; no heap
  /// allocation once `scratch` and `out` are warm): the stacking rows go to
  /// `scratch->matrix` and are scored by PredictMatrixInto — the one-job case
  /// of the day-batched path. `out` must not alias scratch fields.
  void PredictInto(const workload::JobInstance& job, const SimulatedSchedule& sim,
                   PredictScratch* scratch, std::vector<double>* out) const;

  /// Score every row of a stacking-feature matrix (StackingFeatureNames()
  /// schema; row r is a stage of type `types[r]`, from any job) with one
  /// model call per stacking model (see PredictByServingModel). Requires a
  /// trained estimator. `(*out)[r]` is bit-identical to Predict for that
  /// row's stage; call sizes go to scratch->call_rows.
  void PredictMatrixInto(const ml::FeatureMatrix& m, std::span<const int> types,
                         PredictScratch* scratch, std::vector<double>* out) const;

  /// Stacking feature row: the stage's "position" within the job.
  static std::vector<double> StackingFeatures(const SimulatedSchedule& sim,
                                              dag::StageId stage);
  /// Same row into caller-owned storage (cleared first; capacity reused).
  static void StackingFeaturesInto(const SimulatedSchedule& sim, dag::StageId stage,
                                   std::vector<double>* row);
  /// Append one stacking row per stage of `sim` to `m`, installing the
  /// StackingFeatureNames() schema first if `m` has another width: one
  /// job's rows, or job after job for a whole day. `row` is staging.
  static void AppendStackingRows(const SimulatedSchedule& sim, std::vector<double>* row,
                                 ml::FeatureMatrix* m);
  static std::vector<std::string> StackingFeatureNames();

  /// Serialize the trained stacking models; LoadFromText restores them.
  std::string ToText() const;
  Status LoadFromText(const std::string& text);

 private:
  TtlConfig config_;
  std::map<int, ml::GbdtRegressor> per_type_;  ///< stage_type -> model
  std::unique_ptr<ml::GbdtRegressor> general_;
  bool trained_ = false;
};

}  // namespace phoebe::core
