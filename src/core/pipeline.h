// End-to-end Phoebe pipeline (Figure 4): train the three predictors from the
// workload repository, then — at "compile time" for a new job — score stage
// costs, simulate the schedule, stack the TTL, and pick the checkpoint cut.
//
// The pipeline is the *train-time* half of the train/serve split: Train (or
// LoadBundle) produces an immutable PipelineBundle, and every decide-path
// read goes through the pipeline's DecisionEngine view of it (`engine()`),
// so the serving code path is identical whether callers hold a pipeline or a
// bare engine over a loaded bundle.
#pragma once

#include <memory>
#include <string>

#include "core/engine.h"
#include "telemetry/repository.h"

namespace phoebe::core {

/// \brief Trained Phoebe instance.
///
/// Thread-safety: the pipeline is logically const after Train (or
/// LoadBundle) returns — trained state lives in an immutable PipelineBundle,
/// and every inference entry point goes through the const-only
/// DecisionEngine, so concurrent inference calls on one trained pipeline are
/// safe (core_fleet_parallel_test pins this under TSan). Train and
/// LoadBundle swap the bundle and must not overlap any inference call or
/// outstanding engine() use.
class PhoebePipeline {
 public:
  explicit PhoebePipeline(PipelineConfig config = DefaultConfig());

  /// A config tuned for the experiment scale in this repo.
  static PipelineConfig DefaultConfig();

  /// Train all models from the repository days in [first_day, first_day +
  /// num_days). Each day's features use historic stats from days before it.
  /// Inference-time stats are those available after the last training day.
  Status Train(const telemetry::WorkloadRepository& repo, int first_day, int num_days);

  bool trained() const { return engine_.trained(); }

  /// The const-only serving view over the current bundle. The reference
  /// stays valid across Train/LoadBundle (the engine object is re-seated in
  /// place), but must not be *used* while one of the mutators runs.
  const DecisionEngine& engine() const { return engine_; }

  /// The current immutable bundle (shared; never mutates once returned).
  std::shared_ptr<const PipelineBundle> bundle() const {
    return engine_.shared_bundle();
  }

  const telemetry::HistoricStats& inference_stats() const {
    return engine_.inference_stats();
  }
  const StageCostPredictor& exec_predictor() const {
    return engine_.bundle().exec_predictor();
  }
  const StageCostPredictor& size_predictor() const {
    return engine_.bundle().size_predictor();
  }
  const TtlEstimator& ttl_estimator() const {
    return engine_.bundle().ttl_estimator();
  }
  double delta() const { return engine_.delta(); }

  /// Persist / restore the single-file versioned bundle (see core/bundle.h).
  /// LoadBundle replaces this pipeline's config with the bundle's.
  Status SaveBundle(const std::string& path) const;
  Status LoadBundle(const std::string& path);

 private:
  PipelineConfig config_;
  DecisionEngine engine_;
};

}  // namespace phoebe::core
