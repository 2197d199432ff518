// Fleet driver: the day-level production loop (paper §5.4/§5.5, two-step
// design). For every job submitted in a day it makes the per-job cut
// decision, admits jobs under the global-storage budget with the online
// knapsack, and reports what the fleet realized — the layer the Workload
// Insight Service runs in Figure 4.
//
// The layer is split along the arm/context seam (see DESIGN.md
// "Differential evaluation"):
//
//   * DayContext — everything about the day that is *arm-independent*: the
//     day index, the materialized jobs, and the historic-stats view they
//     were submitted under. One context is built once per day and can drive
//     any number of arms; nothing in it mutates.
//   * DecisionArm — everything *bundle/config-specific*: the const serving
//     engine, the fleet config, the recurring-template decision cache, the
//     admission calibration sample, and the (optionally prefix-namespaced)
//     metrics. An arm is the unit the differential A/B harness replicates
//     (core/fleet_ab.h): N arms over one context decide the same jobs under
//     N models or configs in a single pass.
//   * FleetDriver — the single-arm convenience wrapper (the N=1 case). Its
//     API and reports are byte-identical to the pre-split driver; the whole
//     legacy surface forwards to one owned DecisionArm.
//
// The arm serves from a const DecisionEngine (see core/engine.h): the
// decide path has no access to mutable pipeline state, which is what makes
// both of its parallel forms safe by construction:
//   1. thread-level — the day loop's decision phase runs across a
//      fixed-size thread pool, and a serial admission phase replays the
//      online-knapsack offers in arrival order, so the FleetDayReport is
//      byte-identical for any `FleetConfig::num_threads`;
//   2. process-level — DecideDay computes a day's raw decisions with no
//      shared state at all, and ReplayDay re-runs the day with those
//      precomputed decisions through the *same* cache/admission code path,
//      so N shard processes + a serial merge reproduce the unsharded report
//      byte for byte (see core/fleet_shard.h).
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/decision_cache.h"
#include "core/engine.h"
#include "core/evaluate.h"
#include "core/knapsack.h"

namespace phoebe::core {

/// \brief Fleet-level configuration for one day of decisions.
struct FleetConfig {
  Objective objective = Objective::kTempStorage;
  CostSource source = CostSource::kMlStacked;
  /// Global-storage budget for the day, in bytes. Infinite admits everything.
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  /// Expected number of checkpointable arrivals per day (lambda * T for the
  /// knapsack threshold); <= 0 means "use the calibration sample size".
  double expected_arrivals = 0.0;
  /// Cuts per job for the temp-storage objective (Figure 11; 1 = the classic
  /// single-cut sweep). With multiple cuts the driver reports the DP's
  /// *physical* semantics — each stage's temp data clears at the earliest cut
  /// containing it, and checkpoint bytes are counted once per stage even when
  /// an edge crosses several cuts. This deliberately diverges from the
  /// paper's IP constraint (12), which credits each edge at most once; see
  /// DESIGN.md "Multi-cut semantics" and core_multicut_semantics_test.
  int num_cuts = 1;
  /// Worker threads for the decision phase: 0 = hardware concurrency,
  /// 1 = legacy serial path (no pool is created). Any value yields
  /// byte-identical reports; >1 only changes wall-clock time.
  int num_threads = 1;
  /// Per-template decision cache for recurring instances (off by default;
  /// see core/decision_cache.h). All cache traffic is serialized in arrival
  /// order, so reports stay byte-identical for any num_threads; with
  /// quantize_bps == 0 they are also byte-identical to cache-off runs.
  TemplateCacheConfig template_cache;
  /// Optional observability registry (borrowed; must outlive the driver).
  /// Null = metrics off. Strictly passive: reports are byte-identical with
  /// metrics on or off (core_fleet_metrics_test pins this). Multi-arm
  /// callers pass per-arm `MetricsRegistry::Namespaced` views here so the
  /// arms' engine/fleet metric names never collide.
  obs::MetricsRegistry* metrics = nullptr;

  DecideOptions decide_options() const {
    return DecideOptions{objective, source, num_cuts};
  }

  /// Structural validity of every knob (budget/arrivals not NaN, cut and
  /// thread counts in range, nested TemplateCacheConfig valid). Checked once
  /// at driver construction; every entry point fails fast on the result.
  Status Validate() const;
};

/// \brief Decision and outcome for one job of the day.
struct FleetJobOutcome {
  int64_t job_id = 0;
  cluster::CutSet cut;          ///< outermost cut; empty if not checkpointed
  /// All selected cuts, innermost-first (nested; size 1 unless
  /// FleetConfig::num_cuts > 1 found a better multi-cut plan). Empty iff
  /// `cut` is empty.
  std::vector<cluster::CutSet> cuts;
  bool admitted = false;        ///< passed the budget admission
  double global_bytes = 0.0;    ///< estimated storage (0 if not admitted)
  double predicted_value = 0.0; ///< optimizer objective (estimate-based)
  double realized_value = 0.0;  ///< realized byte-seconds saved (admitted only)
};

/// \brief Aggregate report for the day.
struct FleetDayReport {
  std::vector<FleetJobOutcome> outcomes;  ///< one per input job, same order
  int jobs_considered = 0;
  int jobs_with_cut = 0;
  int jobs_admitted = 0;
  double storage_used_bytes = 0.0;
  double total_temp_byte_seconds = 0.0;     ///< fleet total (all jobs)
  double realized_saving_byte_seconds = 0.0;
  double knapsack_threshold = 0.0;
  /// Template-cache traffic for this day (all zero when the cache is off).
  /// Hits count both reuse of prior-day entries and within-day followers of
  /// a leader instance; misses count the decisions actually computed.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;

  double SavingFraction() const {
    return total_temp_byte_seconds > 0.0
               ? realized_saving_byte_seconds / total_temp_byte_seconds
               : 0.0;
  }

  /// The admitted (outermost) cuts, aligned with the input job vector (empty
  /// CutSet for non-admitted jobs) — ready for
  /// cluster::ClusterSimulator::SimulateTempUsage.
  std::vector<cluster::CutSet> AdmittedCuts() const;
};

/// \brief The decide phase of one day, detached from cache and admission:
/// slot i holds the raw decision for job i, engaged iff the job is eligible
/// (>= 2 stages). This is what a shard process computes and serializes; the
/// merge replays it through ReplayDay.
struct FleetDayDecisions {
  std::vector<std::optional<FleetDecision>> decisions;
};

/// \brief Shared, arm-independent state of one fleet day: the generated
/// jobs and the historic-stats view under which every arm must decide them.
/// Built once per day (workload generation and stats materialization are the
/// expensive arm-independent work) and passed by const reference to every
/// arm — N arms over one context is what guarantees, structurally, that
/// alternatives are costed against *identical* inputs.
///
/// Borrows: `jobs` and `stats` must outlive every arm call made with the
/// context. Nothing in a DayContext ever mutates.
struct DayContext {
  int day = 0;  ///< caller's day index (reporting only; arms never read it)
  const std::vector<workload::JobInstance>* jobs = nullptr;
  const telemetry::HistoricStats* stats = nullptr;

  DayContext() = default;
  DayContext(int d, const std::vector<workload::JobInstance>& j,
             const telemetry::HistoricStats& s)
      : day(d), jobs(&j), stats(&s) {}
};

/// \brief One decision arm: a serving engine plus everything that belongs to
/// it — fleet config, template decision cache, admission calibration, and
/// resolved metric pointers. Arms own all bundle-specific day-loop state, so
/// any number of them can run over one DayContext; each keeps its own cache
/// and its own per-worker DayDecideScratch arenas (created per decide
/// phase), and admission replays per arm in arrival order.
class DecisionArm {
 public:
  /// \param engine const serving engine (borrowed; must outlive the arm).
  /// The engine's bundle is immutable, so the parallel phase is safe by
  /// construction; just don't re-seat the engine (PhoebePipeline::Train /
  /// Load / set_batch_inference) while an arm call is in flight.
  DecisionArm(const DecisionEngine* engine, FleetConfig config);

  /// Calibrate the admission threshold from a historical day's decisions.
  /// Must be called before RunDay when the budget is finite.
  Status Calibrate(const DayContext& history);

  /// Decide + admit every job of the day (arrival order = vector order).
  ///
  /// With config.template_cache.enabled, the day runs three sub-phases: a
  /// serial arrival-order prepass resolves cache hits and designates the
  /// first instance of each unseen key as that key's *leader*; the parallel
  /// phase computes only leader decisions; the serial admission replay then
  /// inserts leader decisions into the cache and copies them to followers.
  /// Every cache mutation happens in a serial phase in arrival order, so the
  /// report is byte-identical for any num_threads. The cache persists across
  /// RunDay calls on one arm (that is where cross-day hits come from);
  /// Calibrate never consults it.
  Result<FleetDayReport> RunDay(const DayContext& ctx);

  /// Decide phase only: a fresh decision for every eligible job, no cache
  /// interaction, no admission, no arm-state mutation. This is the work a
  /// shard process performs for the days it owns, and the per-arm pass the
  /// A/B harness diffs.
  Result<FleetDayDecisions> DecideDay(const DayContext& ctx) const;

  /// RunDay with the decision phase replaced by `precomputed` (from
  /// DecideDay, possibly in another process). The cache prepass, leader
  /// bookkeeping, admission replay, and every report counter run the same
  /// code RunDay runs, so for decisions produced by an engine+config equal
  /// to this arm's the report is byte-identical to RunDay's — including
  /// cache hit/miss/eviction counts and LRU eviction order.
  Result<FleetDayReport> ReplayDay(const DayContext& ctx,
                                   const FleetDayDecisions& precomputed);

  const FleetConfig& config() const { return config_; }
  const DecisionEngine& engine() const { return *engine_; }

 private:
  friend struct FleetDriverPeer;  // test-only access to resolved metrics

  /// Metric pointers resolved once at construction (null = metrics off).
  /// Phase names match DESIGN.md "Observability"; under a namespaced
  /// registry every name below carries the arm's prefix.
  struct Metrics {
    obs::Histogram* day_seconds = nullptr;        ///< fleet.day.seconds
    obs::Histogram* decide_seconds = nullptr;     ///< fleet.phase.decide.seconds
    obs::Histogram* admission_seconds = nullptr;  ///< fleet.phase.admission.seconds
    obs::Histogram* decide_day_seconds = nullptr; ///< fleet.shard.decide_day.seconds
    obs::Histogram* replay_day_seconds = nullptr; ///< fleet.shard.replay_day.seconds
    obs::Histogram* cache_lookup_seconds = nullptr;
    obs::Histogram* cache_insert_seconds = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* jobs_decided = nullptr;         ///< fleet.decide.jobs
    /// fleet.worker.<w>.jobs — decisions computed by pool worker w. Worker
    /// attribution is scheduling-dependent (telemetry only); the sum equals
    /// fleet.decide.jobs.
    std::vector<obs::Counter*> worker_jobs;
  };

  Result<FleetDayReport> RunDayImpl(const DayContext& ctx,
                                    const FleetDayDecisions* precomputed);

  const DecisionEngine* engine_;
  FleetConfig config_;
  Status config_status_;  ///< FleetConfig::Validate() at construction
  Metrics metrics_;
  std::vector<KnapsackItem> calibration_;
  bool calibrated_ = false;
  TemplateDecisionCache<FleetDecision> template_cache_;
};

/// \brief Runs the per-day decision loop for one arm — the N=1 wrapper kept
/// for every existing single-bundle call site. Pure forwarding over one
/// owned DecisionArm, so reports are byte-identical to the pre-split driver
/// (core_fleet_ab_test pins arm-0-vs-standalone identity).
class FleetDriver {
 public:
  /// \param engine const serving engine (borrowed; must outlive the driver).
  FleetDriver(const DecisionEngine* engine, FleetConfig config)
      : arm_(engine, config) {}

  /// Calibrate the admission threshold from a historical day's decisions.
  /// Must be called before RunDay when the budget is finite.
  Status Calibrate(const std::vector<workload::JobInstance>& history_jobs,
                   const telemetry::HistoricStats& history_stats) {
    return arm_.Calibrate(DayContext(-1, history_jobs, history_stats));
  }

  /// Decide + admit every job of the day. See DecisionArm::RunDay.
  Result<FleetDayReport> RunDay(const std::vector<workload::JobInstance>& jobs,
                                const telemetry::HistoricStats& stats) {
    return arm_.RunDay(DayContext(-1, jobs, stats));
  }

  /// Decide phase only. See DecisionArm::DecideDay.
  Result<FleetDayDecisions> DecideDay(const std::vector<workload::JobInstance>& jobs,
                                      const telemetry::HistoricStats& stats) const {
    return arm_.DecideDay(DayContext(-1, jobs, stats));
  }

  /// RunDay over precomputed decisions. See DecisionArm::ReplayDay.
  Result<FleetDayReport> ReplayDay(const std::vector<workload::JobInstance>& jobs,
                                   const telemetry::HistoricStats& stats,
                                   const FleetDayDecisions& precomputed) {
    return arm_.ReplayDay(DayContext(-1, jobs, stats), precomputed);
  }

  /// The underlying arm (e.g. to run it against an externally built
  /// DayContext alongside other arms).
  DecisionArm& arm() { return arm_; }
  const DecisionArm& arm() const { return arm_; }

 private:
  DecisionArm arm_;
};

}  // namespace phoebe::core
