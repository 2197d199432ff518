// DecisionEngine: the stateless, const-only serving facade over a
// PipelineBundle.
//
// This is the decide-time half of the train/serve split (see
// core/bundle.h): the engine borrows an immutable bundle via shared_ptr and
// exposes exclusively const methods, so the const-after-Train invariant the
// fleet driver's parallel phase relies on is enforced by the compiler — a
// caller holding `const DecisionEngine&` cannot reach any mutable pipeline
// state. Engines are cheap values (one shared_ptr); every DecisionArm,
// back-tester, and CLI decide path is built on one, and any number of them
// (across threads or processes) can serve from the same bundle.
#pragma once

#include <array>
#include <memory>
#include <span>

#include "core/bundle.h"
#include "core/checkpoint.h"
#include "core/predictors.h"
#include "core/simulator.h"
#include "obs/metrics.h"

namespace phoebe::core {

/// \brief A compile-time checkpoint decision with overhead breakdown (§6.4).
struct PipelineDecision {
  CutResult cut;
  double lookup_seconds = 0.0;    ///< metadata/model lookup
  double scoring_seconds = 0.0;   ///< ML scoring + schedule simulation
  double optimize_seconds = 0.0;  ///< cut search
};

/// \brief One job's full decision: the combined (reported) cut plus the
/// nested cut sets in physical, innermost-first order. This is the value the
/// fleet template cache stores and the shard protocol serializes.
struct FleetDecision {
  CutResult combined;                 ///< cut = outermost; DP-total objective
  std::vector<cluster::CutSet> cuts;  ///< innermost-first; empty if no cut
};

/// \brief Decision context for DecideJob.
struct DecideOptions {
  Objective objective = Objective::kTempStorage;
  CostSource source = CostSource::kMlStacked;
  /// Cuts per job for the temp-storage objective (1 = single-cut sweep).
  int num_cuts = 1;
};

/// \brief One job's slot on the batched decide path (DecideJobsInto):
/// `decision` holds the job's FleetDecision iff `status` is OK.
struct JobDecision {
  Status status;
  FleetDecision decision;
};

/// \brief Per-worker scratch arena for the decide path. One instance per
/// serving thread (a serve worker, a fleet worker, a bench loop) owns every
/// intermediate buffer a decision needs — a whole batch of jobs' inference
/// state at once (every stage row of every job in one feature matrix, and
/// per-row exec / size / TTL estimates), one job's stage costs, its
/// simulated schedule, and the optimizer tables — so once warm (sized by the
/// largest batch and widest job seen), a steady-state DecideJobInto,
/// DecideInto or DecideJobsInto performs zero heap allocations. Never share
/// one arena between concurrent calls; results are bit-identical regardless
/// of which arena (or how warm an arena) served a job.
struct DecideScratch {
  StageCosts costs;                 ///< one job's optimizer inputs
  std::vector<size_t> first_row;    ///< job k owns rows [first_row[k], first_row[k+1])
  std::vector<Status> job_status;   ///< per-job schedule-simulation status
  PredictScratch exec;              ///< stage matrix + exec-model buckets
  PredictScratch size;              ///< size-model buckets (own matrix only
                                    ///< when its FeatureConfig differs)
  PredictScratch ttl;               ///< stacking matrix + TTL buckets
  std::vector<double> exec_s;       ///< per-row exec-seconds estimates
  std::vector<double> output_bytes; ///< per-row output-size estimates
  std::vector<double> end_time;     ///< per-row simulated end
  std::vector<double> tfs;          ///< per-row simulated start
  std::vector<double> ttl_s;        ///< per-row TTL (stacked or simulated)
  std::vector<double> job_end;      ///< per-job simulated end
  SimulatedSchedule sim;            ///< Algorithm-1 schedule (non-truth sources)
  SimulatorScratch sim_scratch;
  CheckpointScratch checkpoint;     ///< sweep / DP / recovery tables
  std::vector<CutResult> multicut;  ///< num_cuts > 1 staging
  std::vector<char> persisted;      ///< multi-cut checkpoint-stage union
};

/// \brief Stateless decide-time facade over one immutable bundle.
///
/// Thread-safety: every method is const and the whole call tree (featurizer,
/// GBDT/MLP forests, TTL stacking models, historic-stats maps) reads
/// immutable bundle state with no caches, so concurrent calls on one engine
/// — or on several engines sharing one bundle — are safe.
/// core_fleet_parallel_test pins this under TSan.
class DecisionEngine {
 public:
  /// \param bundle the trained (or untrained, for non-ML sources) state to
  /// serve from. Shared ownership: the bundle outlives every engine view.
  /// \param metrics optional observability registry (borrowed; must outlive
  /// the engine). Null = metrics off, the default. Metrics are strictly
  /// passive — they never feed a decision — so two engines over one bundle,
  /// one instrumented and one not, decide byte-identically.
  explicit DecisionEngine(std::shared_ptr<const PipelineBundle> bundle,
                          obs::MetricsRegistry* metrics = nullptr);

  const PipelineBundle& bundle() const { return *bundle_; }
  std::shared_ptr<const PipelineBundle> shared_bundle() const { return bundle_; }

  bool trained() const { return bundle_->trained(); }
  double delta() const { return bundle_->delta(); }
  const telemetry::HistoricStats& inference_stats() const { return bundle_->stats(); }

  /// Build the optimizer inputs for one job under a cost source, using only
  /// compile-time information (plus truth for the kTruth oracle). Sets
  /// StageCosts::job_end so the optimizers price the final clear: the true
  /// job end for kTruth, the simulated schedule end otherwise.
  Result<StageCosts> BuildCosts(const workload::JobInstance& job,
                                CostSource source) const;
  /// Same, with an explicit historic-stats view (e.g. for later days).
  Result<StageCosts> BuildCosts(const workload::JobInstance& job, CostSource source,
                                const telemetry::HistoricStats& stats) const;

  /// BuildCosts onto a scratch arena: `*out` is fully overwritten (it may be
  /// `&scratch->costs`). Bit-identical to BuildCosts; with a warm arena the
  /// non-truth paths allocate nothing (FeatureConfig::text excepted). For
  /// the ML sources this is the one-job case of DecideJobsInto's inference
  /// phases.
  Status BuildCostsInto(const workload::JobInstance& job, CostSource source,
                        const telemetry::HistoricStats& stats, DecideScratch* scratch,
                        StageCosts* out) const;

  /// Full compile-time decision for one job, with timing breakdown.
  Result<PipelineDecision> Decide(const workload::JobInstance& job, Objective objective,
                                  CostSource source = CostSource::kMlStacked) const;

  /// Decide onto a scratch arena; `*out` is fully overwritten. Bit-identical
  /// to Decide (timing fields aside, which measure wall time either way).
  Status DecideInto(const workload::JobInstance& job, Objective objective,
                    CostSource source, DecideScratch* scratch,
                    PipelineDecision* out) const;

  /// Per-job fleet decision under an explicit context: BuildCosts + the
  /// objective's optimizer, including the multi-cut physical semantics (the
  /// DP-total objective; global bytes as the union of checkpoint stages —
  /// a stage persists its output once even if edges cross several cuts).
  /// Pure function of (bundle, options, job, stats); safe to call
  /// concurrently for distinct jobs.
  Result<FleetDecision> DecideJob(const workload::JobInstance& job,
                                  const telemetry::HistoricStats& stats,
                                  const DecideOptions& options) const;

  /// DecideJob onto a scratch arena; `*out` is fully overwritten and its cut
  /// bitsets are recycled in place (vector<bool> assignment reuses capacity).
  /// Bit-identical to DecideJob. With a warm arena a steady-state single-cut
  /// decision performs zero heap allocations; the multi-cut path still
  /// allocates only inside the returned nested cut sets on first growth.
  Status DecideJobInto(const workload::JobInstance& job,
                       const telemetry::HistoricStats& stats,
                       const DecideOptions& options, DecideScratch* scratch,
                       FleetDecision* out) const;

  /// Decide many jobs at once: slot k receives exactly what DecideJobInto
  /// returns for *jobs[k] (status and decision, byte for byte). For the ML
  /// cost sources the call runs in four phases, so each serving model sees
  /// all of the batch's rows in one call (DecideJobInto is the one-job
  /// case of the same phases):
  ///   1. featurize every job's stages into one matrix (shared by the exec
  ///      and size predictors when their FeatureConfigs are equal) and score
  ///      it with one PredictRowsInto per serving model, for exec and size;
  ///   2. simulate each job from its exec estimates;
  ///   3. (ml_stacked) score every stacking row with one call per TTL model;
  ///   4. lay out each job's costs and run its optimizer.
  /// Other sources decide job by job through DecideJobInto. Each row's
  /// prediction depends on that row alone, so grouping never changes a
  /// value. `slots.size()` must equal `jobs.size()`.
  void DecideJobsInto(std::span<const workload::JobInstance* const> jobs,
                      const telemetry::HistoricStats& stats,
                      const DecideOptions& options, DecideScratch* scratch,
                      std::span<JobDecision> slots) const;

 private:
  /// Metric pointers for one cost source, resolved once at construction so
  /// the decide path never touches the registry mutex. All null when the
  /// engine runs without metrics.
  struct SourceMetrics {
    obs::Histogram* decide_seconds = nullptr;  ///< engine.<src>.decide.seconds
    obs::Histogram* infer_seconds = nullptr;   ///< engine.<src>.inference.seconds
    obs::Histogram* batch_stages = nullptr;    ///< rows per model call
    obs::Counter* batches = nullptr;           ///< model calls issued
  };
  const SourceMetrics& metrics_for(CostSource source) const {
    return source_metrics_[static_cast<size_t>(source)];
  }

  /// Phases 1-3 of the ML decide path over `jobs` (ml_sim / ml_stacked):
  /// per-row exec, size, simulated schedule and TTL in `scratch`, and each
  /// job's simulation status in scratch->job_status. Fails as a whole only
  /// when the bundle is untrained.
  Status InferCostsInto(std::span<const workload::JobInstance* const> jobs,
                        const telemetry::HistoricStats& stats, CostSource source,
                        DecideScratch* scratch) const;

  /// The objective's optimizer over prebuilt costs: the tail of
  /// DecideJobInto and of DecideJobsInto's phase 4.
  Status OptimizeJobInto(const workload::JobInstance& job, const StageCosts& costs,
                         const DecideOptions& options, DecideScratch* scratch,
                         FleetDecision* out) const;

  std::shared_ptr<const PipelineBundle> bundle_;
  std::array<SourceMetrics, 5> source_metrics_;
};

/// Lower-case token for a cost source, used in metric names and reports
/// ("truth", "opt_est", "constant", "ml_sim", "ml_stacked").
const char* CostSourceToken(CostSource source);

/// Inverse of CostSourceToken, for the serve wire protocol and CLI flags.
/// Unknown tokens are an InvalidArgument naming the token; `*out` untouched
/// on error.
Status CostSourceFromToken(const std::string& token, CostSource* out);

}  // namespace phoebe::core
