// Differential fleet A/B harness: N decision arms, each deciding one
// DayContext per day. Every entry point takes one context per arm: arms that
// share a workload are passed the same context (so they decide the very same
// jobs vector), and scenario arms get their own, so they can decide a
// differently-generated workload for the same day index.
//
// "Is the new model/config better?" is only answerable when the
// alternatives are costed against *identical* inputs. The arm/context split
// in core/fleet.h makes that structural: one DayContext (jobs + stats,
// generated once) drives N DecisionArms — each an immutable bundle plus its
// own FleetConfig, template cache, scratch arenas, and metrics prefix — and
// every arm's FleetDayReport is byte-identical to the report that arm would
// have produced in a standalone single-arm run (core_fleet_ab_test pins
// this across threads, cache modes, and sharding).
//
// The harness's artifact is the paired per-day comparison: per-arm cost and
// realized saving, the decision diff against arm 0 (byte-diff of the
// shard-blob job records, the same bytes lifecycle shadow mode diffs), which
// jobs/stages flipped, and which admissions flipped. Serialized in a
// versioned text format:
//
//   phoebe_ab_report 1
//   day <d> jobs <m> arms <n>
//   arm <k> <name> <crc8> considered <c> with_cut <w> admitted <a>
//       storage <g> temp <g> realized <g> saving <g> cost <g>   # one line, AppendDouble
//   delta <k> decision_flips <f> admission_flips <g> saving_delta <g>
//       cost_delta <g>                                # k = 1..n-1, one line
//   flip <k> job <i> stages <s>                       # f lines, ascending i
//   admission_flip <k> job <i> <+|->                  # g lines, ascending i
//   end_day
//   ...
//   end_ab_report
//
// Arm summaries deliberately carry no template-cache counters, so a paired
// report is byte-identical whether an arm ran cache-off or exact-cache —
// the same neutrality contract the lifecycle day-report JSON keeps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"

namespace phoebe::core {

/// \brief One arm of a differential run: a serving engine (borrowed; must
/// outlive the driver) plus the fleet config it decides under.
struct FleetArmSpec {
  /// Report label. Must be non-empty and free of whitespace (it is a token
  /// in the paired-report text format); unique across the run's arms.
  std::string name;
  const DecisionEngine* engine = nullptr;
  FleetConfig config;
  /// Checksum of the arm's bundle — stamped into the paired report and, in
  /// arm order, into the shard-blob header, so a merge refuses blobs decided
  /// under any other arm's bundle.
  uint32_t bundle_checksum = 0;
};

/// \brief One arm's aggregate day outcome inside a paired report. A strict
/// subset of FleetDayReport: no cache counters (cache-mode neutrality), no
/// knapsack threshold (admission replays per arm; the threshold is an
/// arm-config detail, not a comparison axis).
struct AbArmDaySummary {
  std::string name;
  uint32_t checksum = 0;
  int jobs_considered = 0;
  int jobs_with_cut = 0;
  int jobs_admitted = 0;
  double storage_used_bytes = 0.0;
  double total_temp_byte_seconds = 0.0;
  double realized_saving_byte_seconds = 0.0;
  double saving_fraction = 0.0;  ///< realized / total (0 when total == 0)
  double cost = 1.0;             ///< 1 - saving_fraction (the canary metric)
};

/// \brief One decision flip vs arm 0: job `job`'s serialized decision record
/// differs; `stage_flips` counts the stages whose membership in the
/// outermost checkpoint-before set changed (an absent cut = all stages out).
struct AbDecisionFlip {
  size_t job = 0;
  int stage_flips = 0;
};

/// \brief One admission flip vs arm 0: exactly one of the two arms admitted
/// job `job`. `admitted_in_arm` says which way it flipped (true = this arm
/// admitted it and arm 0 did not).
struct AbAdmissionFlip {
  size_t job = 0;
  bool admitted_in_arm = false;
};

/// \brief Arm k's diff against arm 0 (all-zero for k = 0).
struct AbArmDelta {
  int decision_flips = 0;   ///< job slots whose decision records differ
  int admission_flips = 0;  ///< jobs admitted by exactly one of the arms
  std::vector<AbDecisionFlip> flipped_jobs;        ///< ascending job index
  std::vector<AbAdmissionFlip> admission_flipped;  ///< ascending job index
  double saving_delta = 0.0;  ///< arm.saving_fraction - arm0.saving_fraction
  double cost_delta = 0.0;    ///< arm.cost - arm0.cost
};

/// \brief The paired comparison for one day: per-arm summaries plus each
/// arm's delta against arm 0. `deltas` is aligned with `arms` (entry 0 is
/// the trivial self-diff, all zero).
struct AbDayComparison {
  int day = 0;
  int jobs = 0;  ///< day size (all arms decide the same jobs)
  std::vector<AbArmDaySummary> arms;
  std::vector<AbArmDelta> deltas;
};

/// Build the paired comparison for one day from every arm's decide-phase
/// output and replayed report. `ctxs`, `specs`, `decisions`, and `reports`
/// are parallel (one entry per arm, >= 1; all contexts share one day index),
/// and arm k's decisions and report must cover `ctxs[k].jobs`. Scenario arms
/// decide a differently-generated workload, so a job-slot byte diff against
/// arm 0 is meaningless there — decision and admission flips are computed
/// only for arms whose `jobs` pointer *is* arm 0's vector (callers pass the
/// identical vector for shared-context arms); other arms report zero flips
/// but still carry saving/cost deltas. `jobs` in the result is arm 0's day
/// size. Pure function — this is the consumer the shadow path reuses.
Result<AbDayComparison> BuildAbDayComparison(
    const std::vector<DayContext>& ctxs, const std::vector<FleetArmSpec>& specs,
    const std::vector<FleetDayDecisions>& decisions,
    const std::vector<FleetDayReport>& reports);

/// Serialize paired day comparisons in the versioned text format above.
/// Doubles print via AppendDouble, so Parse(Serialize(x)) == x and equal comparisons
/// serialize byte-identically.
std::string SerializeAbReport(const std::vector<AbDayComparison>& days);

/// Strict parse of a paired report occupying the whole string (format
/// version 1); any malformed line, count mismatch, or trailing byte is an
/// error.
Result<std::vector<AbDayComparison>> ParseAbReport(const std::string& text);

/// \brief Runs N arms over per-arm day contexts and emits paired comparisons.
///
/// Each arm is a full DecisionArm: its own template cache, admission
/// calibration, per-phase scratch arenas, and (when the specs carry
/// namespaced registries) its own metric names. The driver itself owns no
/// day state — callers build the day's contexts (one per arm, entry k for
/// arm k) and every arm decides exactly its context's jobs.
class FleetAbDriver {
 public:
  /// `specs` must hold >= 1 arm with non-null engines and unique,
  /// token-safe names; violations surface as a failed status from every
  /// entry point (same pattern as FleetConfig validation).
  explicit FleetAbDriver(std::vector<FleetArmSpec> specs);

  size_t num_arms() const { return arms_.size(); }
  const FleetArmSpec& spec(size_t k) const { return specs_[k]; }
  DecisionArm& arm(size_t k) { return *arms_[k]; }
  const DecisionArm& arm(size_t k) const { return *arms_[k]; }

  /// Calibrate the admission thresholds: arm k calibrates from
  /// `histories[k]` (scenario arms calibrate against their own workload's
  /// history).
  Status Calibrate(const std::vector<DayContext>& histories);

  /// \brief One day under every arm: per-arm decisions, per-arm reports
  /// (byte-identical to that arm's standalone run), and the paired
  /// comparison.
  struct AbDayResult {
    AbDayComparison comparison;
    std::vector<FleetDayDecisions> decisions;  ///< per arm
    std::vector<FleetDayReport> reports;       ///< per arm
  };

  /// Decide + replay the day: arm k decides `ctxs[k]` (fresh decisions, no
  /// cache interaction) and then replays cache + admission in arrival order
  /// — the same decide/replay split a shard merge uses, so each arm's report
  /// is byte-identical to a standalone DecisionArm::RunDay under that arm's
  /// engine and config.
  Result<AbDayResult> RunDay(const std::vector<DayContext>& ctxs);

  /// Decide phase only, every arm (arm k decides `ctxs[k]`) — the per-arm
  /// work a shard process performs (see fleet_shard.h).
  Result<std::vector<FleetDayDecisions>> DecideDay(
      const std::vector<DayContext>& ctxs) const;

  /// RunDay with every arm's decide phase replaced by `precomputed`: arm k
  /// replays `precomputed[k]` over `ctxs[k]` (from DecideDay, possibly in
  /// another process).
  Result<AbDayResult> ReplayDay(const std::vector<DayContext>& ctxs,
                                const std::vector<FleetDayDecisions>& precomputed);

 private:
  Status specs_status_;
  std::vector<FleetArmSpec> specs_;
  std::vector<std::unique_ptr<DecisionArm>> arms_;
};

}  // namespace phoebe::core
