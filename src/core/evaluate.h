// Back-testing evaluation (paper §6.2/§6.3): choose cuts with each approach's
// (possibly wrong) estimates, then measure the *realized* value against the
// ground truth — exactly the paper's ex-post methodology.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"

namespace phoebe::core {

/// \brief Checkpoint-selection approaches compared in Figures 12 and 14.
enum class Approach {
  kRandom,        ///< random cut
  kMidPoint,      ///< mid-point of the simulated schedule (MP)
  kOptimizerEst,  ///< optimizer + estimated cost (OP)
  kConstant,      ///< optimizer + constant cost (OCC)
  kMl,            ///< optimizer + ML cost models (OML)
  kMlStacked,     ///< optimizer + ML + stacking model (OMLS)
  kOptimal,       ///< offline oracle with true costs
};

const std::string& ApproachName(Approach a);
const std::vector<Approach>& AllApproaches();

/// Realized temp-data saving fraction of a cut on one job: the byte-seconds
/// of temp storage released early (at the true cut-clear time) divided by
/// the job's total temp byte-seconds. In [0, 1].
double RealizedTempSaving(const workload::JobInstance& job, const cluster::CutSet& cut);

/// Multi-cut generalization under the *physical* clearing semantics the
/// fleet driver reports (see DESIGN.md "Multi-cut semantics"): `cuts` are
/// nested cut sets ordered innermost-first, and each stage's temp data
/// clears at the true clear time of the earliest cut containing it. With a
/// single cut this reduces bit-exactly to RealizedTempSaving. In [0, 1].
double RealizedTempSavingMultiCut(const workload::JobInstance& job,
                                  const std::vector<cluster::CutSet>& cuts);

/// \brief Per-approach back-tester.
class BackTester {
 public:
  /// \param engine trained decision engine (for ML-based approaches);
  /// borrowed, must outlive the tester
  /// \param mtbf_seconds cluster MTBF used for the recovery objective
  BackTester(const DecisionEngine* engine, double mtbf_seconds, uint64_t seed = 2024);

  /// Choose a cut for `job` with `approach` toward `objective`. Uses the
  /// given stats view for ML scoring. The optimizer approaches decide through
  /// DecisionEngine::DecideJob (single cut); Random and Mid-Point place their
  /// cut on the job's BuildCosts.
  Result<CutResult> ChooseCut(const workload::JobInstance& job, Approach approach,
                              Objective objective,
                              const telemetry::HistoricStats& stats);

  /// Realized temp-saving fraction per approach over a set of jobs
  /// (Figure 12: one call per day, aggregate across days outside).
  Result<std::map<Approach, RunningStats>> EvaluateTempStorage(
      const std::vector<workload::JobInstance>& jobs,
      const telemetry::HistoricStats& stats,
      const std::vector<Approach>& approaches = AllApproaches());

  /// Realized recovery-time saving fraction per approach (Figure 14),
  /// evaluated analytically under the true schedule and failure model.
  Result<std::map<Approach, RunningStats>> EvaluateRecovery(
      const std::vector<workload::JobInstance>& jobs,
      const telemetry::HistoricStats& stats,
      const std::vector<Approach>& approaches = AllApproaches());

  /// Realized saving of ONE approach under either objective — the unit the
  /// lifecycle loop's canary comparison aggregates over a trailing window.
  /// Temp-storage savings come from RealizedTempSaving, recovery savings
  /// from the failure model's RestartSavingFraction, exactly as the
  /// per-approach sweeps above. Deterministic approaches delegate to
  /// EvaluateApproachArms as the N=1 case.
  Result<RunningStats> EvaluateApproach(
      const std::vector<workload::JobInstance>& jobs,
      const telemetry::HistoricStats& stats, Approach approach,
      Objective objective);

 private:
  const DecisionEngine* engine_;
  double mtbf_seconds_;
  Rng rng_;
};

/// Realized saving of one deterministic approach under N engines — the
/// arm-based form of BackTester::EvaluateApproach the lifecycle canary uses
/// to cost incumbent and candidate against identical inputs. The optimizer
/// approaches decide each arm's jobs with one DecisionEngine::DecideJobsInto
/// call (Mid-Point positions its cut on each job's BuildCosts); per job, the
/// eligibility check and (for the recovery objective) the FailureModel are
/// computed once and shared by every arm. Entry k of the result aggregates
/// engine k's realized savings in job order; each entry is bit-exactly what
/// a standalone EvaluateApproach under that engine returns.
/// Approach::kRandom is rejected (its cut draws consume a per-tester rng
/// stream that a shared pass cannot replay per arm).
Result<std::vector<RunningStats>> EvaluateApproachArms(
    const std::vector<const DecisionEngine*>& engines,
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, Approach approach,
    Objective objective, double mtbf_seconds);

}  // namespace phoebe::core
