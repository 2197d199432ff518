#include "core/evaluate.h"

#include <algorithm>
#include <optional>

#include "cluster/failure.h"

namespace phoebe::core {

namespace {

/// Cost source of an approach (shared by BackTester and the arm-based
/// evaluator).
CostSource ApproachSource(Approach approach) {
  switch (approach) {
    case Approach::kOptimal: return CostSource::kTruth;
    case Approach::kOptimizerEst: return CostSource::kOptimizerEstimates;
    case Approach::kConstant: return CostSource::kConstant;
    case Approach::kMl: return CostSource::kMlSimulator;
    case Approach::kMlStacked: return CostSource::kMlStacked;
    case Approach::kRandom:
    case Approach::kMidPoint:
      // Baselines position the cut on the simulated schedule with ML exec
      // inputs (the schedule source does not matter for Random).
      return CostSource::kMlSimulator;
  }
  return CostSource::kMlSimulator;
}

}  // namespace

const std::string& ApproachName(Approach a) {
  static const std::map<Approach, std::string> kNames = {
      {Approach::kRandom, "Random"},
      {Approach::kMidPoint, "Mid-Point"},
      {Approach::kOptimizerEst, "Optimizer+EstimatedCost"},
      {Approach::kConstant, "Optimizer+ConstantCost"},
      {Approach::kMl, "Optimizer+MLCost"},
      {Approach::kMlStacked, "Optimizer+MLCost+Stacking"},
      {Approach::kOptimal, "Optimal"},
  };
  return kNames.at(a);
}

const std::vector<Approach>& AllApproaches() {
  static const std::vector<Approach> kAll = {
      Approach::kRandom,   Approach::kMidPoint,  Approach::kOptimizerEst,
      Approach::kConstant, Approach::kMl,        Approach::kMlStacked,
      Approach::kOptimal,
  };
  return kAll;
}

double RealizedTempSaving(const workload::JobInstance& job, const cluster::CutSet& cut) {
  double total = job.TempByteSeconds();
  if (total <= 0.0 || cut.empty()) return 0.0;
  double clear = cluster::CutClearTime(job, cut);
  double saved = 0.0;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    if (!cut.before_cut[u]) continue;
    const workload::StageTruth& t = job.truth[u];
    double held = std::max(0.0, clear - t.end_time);
    saved += t.output_bytes * std::max(0.0, t.ttl - held);
  }
  return std::clamp(saved / total, 0.0, 1.0);
}

double RealizedTempSavingMultiCut(const workload::JobInstance& job,
                                  const std::vector<cluster::CutSet>& cuts) {
  if (cuts.empty()) return 0.0;
  if (cuts.size() == 1) return RealizedTempSaving(job, cuts.front());
  double total = job.TempByteSeconds();
  if (total <= 0.0) return 0.0;
  std::vector<double> clear(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    clear[c] = cluster::CutClearTime(job, cuts[c]);
  }
  double saved = 0.0;
  for (size_t u = 0; u < job.truth.size(); ++u) {
    // Earliest (innermost) cut containing the stage clears its data.
    for (size_t c = 0; c < cuts.size(); ++c) {
      if (cuts[c].before_cut.empty() || !cuts[c].before_cut[u]) continue;
      const workload::StageTruth& t = job.truth[u];
      double held = std::max(0.0, clear[c] - t.end_time);
      saved += t.output_bytes * std::max(0.0, t.ttl - held);
      break;
    }
  }
  return std::clamp(saved / total, 0.0, 1.0);
}

BackTester::BackTester(const DecisionEngine* engine, double mtbf_seconds,
                       uint64_t seed)
    : engine_(engine), mtbf_seconds_(mtbf_seconds), rng_(seed) {
  PHOEBE_CHECK(engine != nullptr);
  PHOEBE_CHECK(mtbf_seconds > 0.0);
}

Result<CutResult> BackTester::ChooseCut(const workload::JobInstance& job,
                                        Approach approach, Objective objective,
                                        const telemetry::HistoricStats& stats) {
  const CostSource source = ApproachSource(approach);
  if (approach == Approach::kRandom || approach == Approach::kMidPoint) {
    PHOEBE_ASSIGN_OR_RETURN(StageCosts costs, engine_->BuildCosts(job, source, stats));
    if (approach == Approach::kRandom) return RandomCut(job.graph, costs, &rng_);
    return MidPointCut(job.graph, costs);
  }
  PHOEBE_ASSIGN_OR_RETURN(FleetDecision decision,
                          engine_->DecideJob(job, stats, {objective, source, 1}));
  return std::move(decision.combined);
}

Result<std::map<Approach, RunningStats>> BackTester::EvaluateTempStorage(
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, const std::vector<Approach>& approaches) {
  std::map<Approach, RunningStats> out;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    for (Approach a : approaches) {
      PHOEBE_ASSIGN_OR_RETURN(CutResult cut,
                              ChooseCut(job, a, Objective::kTempStorage, stats));
      out[a].Add(RealizedTempSaving(job, cut.cut));
    }
  }
  return out;
}

Result<std::map<Approach, RunningStats>> BackTester::EvaluateRecovery(
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, const std::vector<Approach>& approaches) {
  std::map<Approach, RunningStats> out;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    cluster::FailureModel failure(job, mtbf_seconds_);
    for (Approach a : approaches) {
      PHOEBE_ASSIGN_OR_RETURN(CutResult cut,
                              ChooseCut(job, a, Objective::kRecovery, stats));
      // The paper's §5.3 metric: expected P_F * T-bar under the true
      // schedule, relative to the expected uncheckpointed loss.
      out[a].Add(failure.RestartSavingFraction(cut.cut));
    }
  }
  return out;
}

Result<RunningStats> BackTester::EvaluateApproach(
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, Approach approach, Objective objective) {
  if (approach != Approach::kRandom) {
    PHOEBE_ASSIGN_OR_RETURN(
        std::vector<RunningStats> arms,
        EvaluateApproachArms({engine_}, jobs, stats, approach, objective,
                             mtbf_seconds_));
    return arms.front();
  }
  // kRandom consumes this tester's rng stream; it cannot share an arm pass.
  RunningStats out;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    PHOEBE_ASSIGN_OR_RETURN(CutResult cut, ChooseCut(job, approach, objective, stats));
    if (objective == Objective::kTempStorage) {
      out.Add(RealizedTempSaving(job, cut.cut));
    } else {
      cluster::FailureModel failure(job, mtbf_seconds_);
      out.Add(failure.RestartSavingFraction(cut.cut));
    }
  }
  return out;
}

Result<std::vector<RunningStats>> EvaluateApproachArms(
    const std::vector<const DecisionEngine*>& engines,
    const std::vector<workload::JobInstance>& jobs,
    const telemetry::HistoricStats& stats, Approach approach,
    Objective objective, double mtbf_seconds) {
  if (engines.empty()) return Status::InvalidArgument("no engines to evaluate");
  for (const DecisionEngine* e : engines) {
    if (e == nullptr) return Status::InvalidArgument("null engine in arm list");
  }
  if (approach == Approach::kRandom) {
    return Status::InvalidArgument(
        "Approach::kRandom needs a per-tester rng stream; use "
        "BackTester::EvaluateApproach");
  }
  if (mtbf_seconds <= 0.0) {
    return Status::InvalidArgument("mtbf_seconds must be > 0");
  }
  std::vector<const workload::JobInstance*> eligible;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() >= 2) eligible.push_back(&job);
  }
  const CostSource source = ApproachSource(approach);
  // Optimizer approaches: each arm decides the whole day in one batched call
  // (one model call per serving model), exactly as the fleet does.
  std::vector<std::vector<JobDecision>> decided(engines.size());
  if (approach != Approach::kMidPoint) {
    DecideScratch scratch;
    for (size_t k = 0; k < engines.size(); ++k) {
      decided[k].resize(eligible.size());
      engines[k]->DecideJobsInto(eligible, stats, {objective, source, 1}, &scratch,
                                 decided[k]);
    }
  }
  // Savings are added in job order, and the first failure in (job, arm)
  // order is the one returned.
  std::vector<RunningStats> out(engines.size());
  for (size_t j = 0; j < eligible.size(); ++j) {
    const workload::JobInstance& job = *eligible[j];
    // Job-level work shared across arms: for recovery, the failure model
    // over the true schedule.
    std::optional<cluster::FailureModel> failure;
    if (objective != Objective::kTempStorage) {
      failure.emplace(job, mtbf_seconds);
    }
    for (size_t k = 0; k < engines.size(); ++k) {
      CutResult mid_point;
      const cluster::CutSet* cut = &mid_point.cut;
      if (approach == Approach::kMidPoint) {
        PHOEBE_ASSIGN_OR_RETURN(StageCosts costs,
                                engines[k]->BuildCosts(job, source, stats));
        PHOEBE_ASSIGN_OR_RETURN(mid_point, MidPointCut(job.graph, costs));
      } else {
        PHOEBE_RETURN_NOT_OK(decided[k][j].status);
        cut = &decided[k][j].decision.combined.cut;
      }
      if (objective == Objective::kTempStorage) {
        out[k].Add(RealizedTempSaving(job, *cut));
      } else {
        out[k].Add(failure->RestartSavingFraction(*cut));
      }
    }
  }
  return out;
}

}  // namespace phoebe::core
