// Stage-level cost predictors (paper §4.1): execution time and output size.
//
// The default configuration is the paper's best: one LightGBM-style GBDT per
// stage type ("stage-type specific models"), trained on Table-1 features,
// falling back to a general model for rare types. A general GBDT and a
// general MLP-with-text-features ("DNN benchmark") are available for the
// §6.1 ablations. Targets are modeled in log1p space and expanded back.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/features.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"

namespace phoebe::core {

/// \brief Which learner architecture to use.
enum class ModelKind {
  kGbdtPerStageType,  ///< paper default: stage-type specific LightGBM models
  kGbdtGeneral,       ///< one GBDT for all stages
  kMlpGeneral,        ///< DNN benchmark (pair with FeatureConfig.text = true)
};

/// \brief Configuration of one stage cost predictor.
struct PredictorConfig {
  ModelKind kind = ModelKind::kGbdtPerStageType;
  FeatureConfig features;
  ml::GbdtParams gbdt;
  ml::MlpParams mlp;
  /// Stage types with fewer training rows than this use the general model.
  int min_samples_per_type = 100;
  /// Score a job's (or a day's) stage rows with one PredictRowsInto call per
  /// serving model instead of a scalar Predict per stage. Bit-equal to the
  /// scalar path (the batch overrides pin that contract), so this is purely
  /// a throughput knob.
  bool batch_inference = true;
};

/// \brief One training example: a job paired with the historic statistics
/// that were available when it was compiled (days strictly before its own).
struct TrainExample {
  const workload::JobInstance* job = nullptr;
  const telemetry::HistoricStats* stats = nullptr;
};

/// \brief Reusable featurize→predict working storage for one inference
/// stream (see core/engine.h DecideScratch and DayDecideScratch). A warm
/// scratch — one that has seen the widest job (or day) of the workload —
/// makes every predict call on it allocation-free: the feature matrix, the
/// per-model row buckets, and the log-space output buffer are all recycled
/// in place.
struct PredictScratch {
  ml::FeatureMatrix matrix;    ///< feature rows: one job's, or a whole day's
  std::vector<double> row;     ///< per-stage staging row
  std::vector<int> types;      ///< stage type of each matrix row
  std::vector<size_t> rows;    ///< matrix rows grouped by serving model
  /// Bucket b (the b-th per-type model in ascending stage type, then the
  /// general model last) is rows[bucket[b], bucket[b + 1]).
  std::vector<size_t> bucket;
  std::vector<int> model_types;  ///< stage types that have a per-type model
  std::vector<double> y_log;   ///< model outputs for one bucket (log space)
  /// Rows passed to each model call made by the last predict call, in call
  /// order (1 per row on the scalar path) — inference-batch telemetry.
  std::vector<size_t> call_rows;
};

/// The one batched scorer behind StageCostPredictor and TtlEstimator, for
/// one job's rows or a whole day's. Row r of `m` is a stage of type
/// `types[r]`; it is served by `per_type`'s model for that type, or by
/// `general` when there is none. Rows are bucketed by serving model (per-type
/// models in ascending type, the general model last; rows ascending within a
/// bucket) and each model is called once over its bucket — or once per row
/// when `batched` is false. The prediction is max(0, expm1(y_log)), times
/// `calibration->at(type)` / `general_calibration` when `calibration` is
/// non-null. Every row's value depends on that row alone, so it is
/// bit-identical however rows are grouped. `m`/`types` may be
/// scratch->matrix/scratch->types; `out` must not alias scratch fields.
void PredictByServingModel(const ml::FeatureMatrix& m, std::span<const int> types,
                           const std::map<int, ml::GbdtRegressor>& per_type,
                           const ml::Regressor& general,
                           const std::map<int, double>* calibration,
                           double general_calibration, bool batched,
                           PredictScratch* scratch, std::vector<double>* out);

/// \brief Predicts one target (exec time or output size) per stage.
class StageCostPredictor {
 public:
  StageCostPredictor(PredictorConfig config, Target target);

  /// Train on per-job examples, each carrying its own historic-stats view.
  Status Train(const std::vector<TrainExample>& examples);

  /// Convenience: all jobs share one stats view (`stats` must be computed
  /// from days at or before the training days; the caller controls leakage).
  Status Train(const std::vector<workload::JobInstance>& jobs,
               const telemetry::HistoricStats& stats);

  bool trained() const { return trained_; }
  Target target() const { return target_; }
  const PredictorConfig& config() const { return config_; }
  const StageFeaturizer& featurizer() const { return featurizer_; }

  /// Predict the target (origin scale, >= 0) for one stage of a job, using
  /// only compile-time information.
  double PredictStage(const workload::JobInstance& job, int stage_id,
                      const telemetry::HistoricStats& stats) const;

  /// Predict all stages of a job. With config().batch_inference on, stages
  /// are grouped by serving model and scored with one PredictRowsInto call
  /// per group; otherwise each stage is a scalar Predict. Both paths return
  /// bit-identical values.
  std::vector<double> PredictJob(const workload::JobInstance& job,
                                 const telemetry::HistoricStats& stats) const;

  /// PredictJob into caller-owned buffers: featurizes the whole job into
  /// `scratch->matrix` and scores it with PredictMatrixInto — the one-job
  /// case of the day-batched path. Values are bit-identical to PredictJob;
  /// with warm buffers the call performs no heap allocation (FeatureConfig::
  /// text excepted). `out` must not alias scratch fields.
  void PredictJobInto(const workload::JobInstance& job,
                      const telemetry::HistoricStats& stats, PredictScratch* scratch,
                      std::vector<double>* out) const;

  /// Score every row of a stage matrix built by featurizer() (row r is a
  /// stage of type `types[r]`, from any job): rows are bucketed by serving
  /// model and each model is called once over its bucket (or, with
  /// batch_inference off, once per row). `(*out)[r]` is bit-identical to
  /// PredictStage for that row's stage; no allocation once `scratch` and
  /// `out` are warm. `m`/`types` may be scratch->matrix/scratch->types;
  /// `out` must not alias scratch fields. Records each call's row count in
  /// scratch->call_rows.
  void PredictMatrixInto(const ml::FeatureMatrix& m, std::span<const int> types,
                         PredictScratch* scratch, std::vector<double>* out) const;

  /// Toggle batched scoring after construction (e.g. for benchmarking both
  /// paths on one trained predictor). Not safe to call concurrently with
  /// inference.
  void set_batch_inference(bool on) { config_.batch_inference = on; }

  /// Number of per-stage-type models actually trained (0 for general kinds).
  size_t num_type_models() const { return per_type_.size(); }

  /// The general (fallback) model, for feature-importance analysis.
  const ml::Regressor* general_model() const { return general_.get(); }

  /// Serialize the trained models (general + per-type + calibrations) to a
  /// text blob. LoadFromText restores them into a predictor constructed with
  /// a matching configuration.
  std::string ToText() const;
  Status LoadFromText(const std::string& text);

 private:
  std::unique_ptr<ml::Regressor> MakeGeneral() const;

  PredictorConfig config_;
  Target target_;
  StageFeaturizer featurizer_;
  std::unique_ptr<ml::Regressor> general_;
  std::map<int, ml::GbdtRegressor> per_type_;  ///< stage_type -> model
  // Smearing correction: training in log1p space under-predicts origin-scale
  // means (E[exp(x)] > exp(E[x])); each model carries a multiplicative
  // calibration fitted on its training rows.
  std::map<int, double> calibration_;
  double general_calibration_ = 1.0;
  bool trained_ = false;
};

}  // namespace phoebe::core
