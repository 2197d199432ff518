#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "cluster/cluster.h"
#include "core/simulator.h"
#include "core/ttl.h"

namespace phoebe::core {

const char* CostSourceToken(CostSource source) {
  switch (source) {
    case CostSource::kTruth: return "truth";
    case CostSource::kOptimizerEstimates: return "opt_est";
    case CostSource::kConstant: return "constant";
    case CostSource::kMlSimulator: return "ml_sim";
    case CostSource::kMlStacked: return "ml_stacked";
  }
  return "unknown";
}

Status CostSourceFromToken(const std::string& token, CostSource* out) {
  for (CostSource s : {CostSource::kTruth, CostSource::kOptimizerEstimates,
                       CostSource::kConstant, CostSource::kMlSimulator,
                       CostSource::kMlStacked}) {
    if (token == CostSourceToken(s)) {
      *out = s;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown cost source token '" + token + "'");
}

DecisionEngine::DecisionEngine(std::shared_ptr<const PipelineBundle> bundle,
                               obs::MetricsRegistry* metrics)
    : bundle_(std::move(bundle)) {
  PHOEBE_CHECK(bundle_ != nullptr);
  if (metrics == nullptr) return;
  for (CostSource s : {CostSource::kTruth, CostSource::kOptimizerEstimates,
                       CostSource::kConstant, CostSource::kMlSimulator,
                       CostSource::kMlStacked}) {
    const std::string base = std::string("engine.") + CostSourceToken(s);
    SourceMetrics& m = source_metrics_[static_cast<size_t>(s)];
    m.decide_seconds = metrics->histogram(base + ".decide.seconds");
    m.infer_seconds = metrics->histogram(base + ".inference.seconds");
    m.batch_stages = metrics->histogram(
        base + ".inference.batch_stages",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 12));
    m.batches = metrics->counter(base + ".inference.batches");
  }
}

namespace {

bool IsMlSource(CostSource source) {
  return source == CostSource::kMlSimulator || source == CostSource::kMlStacked;
}

/// Inference-batch telemetry: one `rows` observation per model call, sized
/// by the rows that call scored, and the call count.
void RecordModelCalls(obs::Histogram* rows, obs::Counter* calls,
                      const PredictScratch& scratch) {
  for (size_t n : scratch.call_rows) obs::Observe(rows, static_cast<double>(n));
  obs::Add(calls, static_cast<int64_t>(scratch.call_rows.size()));
}

/// Job k's optimizer inputs out of the per-row arrays InferCostsInto
/// filled — the layout BuildCostsInto returns.
void JobCostsInto(const workload::JobInstance& job, size_t k,
                  const DecideScratch& scratch, StageCosts* out) {
  const size_t r0 = scratch.first_row[k];
  const size_t r1 = scratch.first_row[k + 1];
  out->num_tasks.clear();
  for (size_t u = 0; u < r1 - r0; ++u) out->num_tasks.push_back(job.truth[u].num_tasks);
  out->output_bytes.assign(scratch.output_bytes.begin() + r0,
                           scratch.output_bytes.begin() + r1);
  out->end_time.assign(scratch.end_time.begin() + r0, scratch.end_time.begin() + r1);
  out->tfs.assign(scratch.tfs.begin() + r0, scratch.tfs.begin() + r1);
  out->ttl.assign(scratch.ttl_s.begin() + r0, scratch.ttl_s.begin() + r1);
  out->job_end = scratch.job_end[k];
}

}  // namespace

Result<StageCosts> DecisionEngine::BuildCosts(const workload::JobInstance& job,
                                              CostSource source) const {
  return BuildCosts(job, source, bundle_->stats());
}

Result<StageCosts> DecisionEngine::BuildCosts(
    const workload::JobInstance& job, CostSource source,
    const telemetry::HistoricStats& stats) const {
  DecideScratch scratch;
  StageCosts costs;
  PHOEBE_RETURN_NOT_OK(BuildCostsInto(job, source, stats, &scratch, &costs));
  return costs;
}

Status DecisionEngine::BuildCostsInto(const workload::JobInstance& job,
                                      CostSource source,
                                      const telemetry::HistoricStats& stats,
                                      DecideScratch* scratch, StageCosts* out) const {
  if (IsMlSource(source)) {
    const workload::JobInstance* one[] = {&job};
    PHOEBE_RETURN_NOT_OK(InferCostsInto(one, stats, source, scratch));
    PHOEBE_RETURN_NOT_OK(scratch->job_status[0]);
    JobCostsInto(job, 0, *scratch, out);
    return Status::OK();
  }

  const size_t n = job.graph.num_stages();
  out->num_tasks.clear();
  out->num_tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->num_tasks.push_back(job.truth[i].num_tasks);
  }
  out->job_end = 0.0;

  if (source == CostSource::kTruth) {
    out->output_bytes.clear();
    out->ttl.clear();
    out->end_time.clear();
    out->tfs.clear();
    out->output_bytes.reserve(n);
    out->ttl.reserve(n);
    out->end_time.reserve(n);
    out->tfs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const workload::StageTruth& t = job.truth[i];
      out->output_bytes.push_back(t.output_bytes);
      out->ttl.push_back(t.ttl);
      out->end_time.push_back(t.end_time);
      out->tfs.push_back(t.tfs);
      // True job end: every stage's temp data clears there, so end + ttl is
      // the same value for all stages up to the generator's finalization
      // slack; the max is the true clear time the optimizers price.
      out->job_end = std::max(out->job_end, t.end_time + t.ttl);
    }
    return Status::OK();
  }

  // Per-stage execution time and output size from the chosen source, written
  // straight into the arena (exec) and the result (output bytes) — no
  // zero-init-then-overwrite temporaries.
  std::vector<double>& exec = scratch->exec_s;
  if (source == CostSource::kOptimizerEstimates) {
    exec.resize(n);
    out->output_bytes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      exec[i] = std::max(0.0, job.est[i].est_exclusive_cost);
      out->output_bytes[i] = std::max(0.0, job.est[i].est_output_bytes);
    }
  } else {
    PHOEBE_CHECK(source == CostSource::kConstant);
    exec.assign(n, 1.0);
    out->output_bytes.assign(n, 1.0);
  }

  PHOEBE_RETURN_NOT_OK(
      SimulateScheduleInto(job.graph, exec, &scratch->sim_scratch, &scratch->sim));
  const SimulatedSchedule& sim = scratch->sim;

  out->end_time.assign(sim.end.begin(), sim.end.end());
  out->tfs.assign(sim.start.begin(), sim.start.end());
  // The simulator has no finalization slack (job_end == max end), so for the
  // estimate-based sources this leaves the final-clear adjustment at zero.
  out->job_end = sim.job_end;
  out->ttl.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out->ttl[i] = sim.Ttl(static_cast<dag::StageId>(i));
  }
  return Status::OK();
}

Result<PipelineDecision> DecisionEngine::Decide(const workload::JobInstance& job,
                                                Objective objective,
                                                CostSource source) const {
  DecideScratch scratch;
  PipelineDecision decision;
  PHOEBE_RETURN_NOT_OK(DecideInto(job, objective, source, &scratch, &decision));
  return decision;
}

Status DecisionEngine::DecideInto(const workload::JobInstance& job,
                                  Objective objective, CostSource source,
                                  DecideScratch* scratch,
                                  PipelineDecision* out) const {
  using Clock = std::chrono::steady_clock;

  auto t0 = Clock::now();
  // Metadata/model lookup: resolve stats entries for every stage type in the
  // plan (in production this is the Workload Insight Service round trip).
  for (size_t i = 0; i < job.graph.num_stages(); ++i) {
    (void)bundle_->stats().Get(job.template_id,
                               job.graph.stage(static_cast<int>(i)).stage_type);
  }
  auto t1 = Clock::now();

  PHOEBE_RETURN_NOT_OK(
      BuildCostsInto(job, source, bundle_->stats(), scratch, &scratch->costs));
  auto t2 = Clock::now();

  switch (objective) {
    case Objective::kTempStorage: {
      PHOEBE_RETURN_NOT_OK(OptimizeTempStorageInto(job.graph, scratch->costs,
                                                   &scratch->checkpoint, &out->cut));
      break;
    }
    case Objective::kRecovery: {
      PHOEBE_RETURN_NOT_OK(OptimizeRecoveryInto(job.graph, scratch->costs,
                                                bundle_->delta(), &scratch->checkpoint,
                                                &out->cut));
      break;
    }
  }
  auto t3 = Clock::now();

  auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  out->lookup_seconds = secs(t0, t1);
  out->scoring_seconds = secs(t1, t2);
  out->optimize_seconds = secs(t2, t3);
  return Status::OK();
}

Result<FleetDecision> DecisionEngine::DecideJob(const workload::JobInstance& job,
                                                const telemetry::HistoricStats& stats,
                                                const DecideOptions& options) const {
  DecideScratch scratch;
  FleetDecision d;
  PHOEBE_RETURN_NOT_OK(DecideJobInto(job, stats, options, &scratch, &d));
  return d;
}

Status DecisionEngine::DecideJobInto(const workload::JobInstance& job,
                                     const telemetry::HistoricStats& stats,
                                     const DecideOptions& options,
                                     DecideScratch* scratch, FleetDecision* out) const {
  obs::ScopedTimer decide_timer(metrics_for(options.source).decide_seconds);
  PHOEBE_RETURN_NOT_OK(
      BuildCostsInto(job, options.source, stats, scratch, &scratch->costs));
  return OptimizeJobInto(job, scratch->costs, options, scratch, out);
}

Status DecisionEngine::OptimizeJobInto(const workload::JobInstance& job,
                                       const StageCosts& costs,
                                       const DecideOptions& options,
                                       DecideScratch* scratch, FleetDecision* out) const {
  // Single-cut objectives: the optimizer writes the combined result in
  // place; the nested-cut list mirrors it, recycling its bitset.
  auto mirror_single_cut = [out] {
    if (out->combined.cut.empty()) {
      out->cuts.clear();
    } else {
      out->cuts.resize(1);
      out->cuts[0].before_cut = out->combined.cut.before_cut;
    }
  };
  if (options.objective == Objective::kRecovery) {
    PHOEBE_RETURN_NOT_OK(OptimizeRecoveryInto(job.graph, costs, bundle_->delta(),
                                              &scratch->checkpoint, &out->combined));
    mirror_single_cut();
    return Status::OK();
  }
  if (options.num_cuts <= 1) {
    PHOEBE_RETURN_NOT_OK(OptimizeTempStorageInto(job.graph, costs,
                                                 &scratch->checkpoint, &out->combined));
    mirror_single_cut();
    return Status::OK();
  }

  // Multi-cut plan, reported under the physical semantics the cluster
  // realizes: the DP-total objective (each stage credited at its earliest
  // cut), and global bytes as the union of checkpoint stages across cuts —
  // a stage persists its output once even if edges cross several cuts.
  PHOEBE_RETURN_NOT_OK(OptimizeTempStorageMultiCutInto(
      job.graph, costs, options.num_cuts, &scratch->checkpoint, &scratch->multicut));
  const std::vector<CutResult>& cuts = scratch->multicut;
  if (cuts.empty()) {
    out->combined.cut.before_cut.clear();
    out->combined.objective = 0.0;
    out->combined.global_bytes = 0.0;
    out->cuts.clear();
    return Status::OK();
  }
  out->combined.cut.before_cut = cuts.back().cut.before_cut;  // outermost set
  out->combined.objective = cuts.front().objective;           // DP total
  out->combined.global_bytes = 0.0;
  const size_t n = job.graph.num_stages();
  std::vector<char>& persisted = scratch->persisted;
  persisted.assign(n, 0);
  out->cuts.resize(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    out->cuts[c].before_cut = cuts[c].cut.before_cut;
    for (dag::StageId u = 0; u < static_cast<dag::StageId>(n); ++u) {
      if (cluster::IsCheckpointStage(job.graph, cuts[c].cut, u)) {
        persisted[static_cast<size_t>(u)] = 1;
      }
    }
  }
  // Ascending-id union sum — the same order the old std::set walk produced.
  for (size_t u = 0; u < n; ++u) {
    if (persisted[u]) out->combined.global_bytes += costs.output_bytes[u];
  }
  return Status::OK();
}

Status DecisionEngine::InferCostsInto(std::span<const workload::JobInstance* const> jobs,
                                      const telemetry::HistoricStats& stats,
                                      CostSource source, DecideScratch* scratch) const {
  if (!bundle_->trained()) return Status::FailedPrecondition("pipeline not trained");
  const size_t nj = jobs.size();
  const SourceMetrics& m = metrics_for(source);
  const StageCostPredictor& exec_predictor = bundle_->exec_predictor();
  const StageCostPredictor& size_predictor = bundle_->size_predictor();

  // Phase 1: one stage matrix for the batch, one model call per serving
  // model for exec and for size.
  obs::ScopedTimer infer_timer(m.infer_seconds);
  std::vector<int>& types = scratch->exec.types;
  scratch->first_row.resize(nj + 1);
  scratch->exec.matrix.ClearRows();
  types.clear();
  for (size_t k = 0; k < nj; ++k) {
    const workload::JobInstance& job = *jobs[k];
    scratch->first_row[k] = types.size();
    exec_predictor.featurizer().AppendJobRows(job, stats, &scratch->exec.row,
                                              &scratch->exec.matrix);
    for (size_t u = 0; u < job.graph.num_stages(); ++u) {
      types.push_back(job.graph.stage(static_cast<dag::StageId>(u)).stage_type);
    }
  }
  scratch->first_row[nj] = types.size();
  const size_t nr = types.size();
  exec_predictor.PredictMatrixInto(scratch->exec.matrix, types, &scratch->exec,
                                   &scratch->exec_s);
  const ml::FeatureMatrix* size_matrix = &scratch->exec.matrix;
  if (size_predictor.featurizer().config() != exec_predictor.featurizer().config()) {
    scratch->size.matrix.ClearRows();
    for (size_t k = 0; k < nj; ++k) {
      size_predictor.featurizer().AppendJobRows(*jobs[k], stats, &scratch->size.row,
                                                &scratch->size.matrix);
    }
    size_matrix = &scratch->size.matrix;
  }
  size_predictor.PredictMatrixInto(*size_matrix, types, &scratch->size,
                                   &scratch->output_bytes);
  infer_timer.Stop();
  RecordModelCalls(m.batch_stages, m.batches, scratch->exec);
  RecordModelCalls(m.batch_stages, m.batches, scratch->size);

  // Phase 2: simulate each job; ml_stacked stacks its TTL feature rows.
  const bool stacked = source == CostSource::kMlStacked;
  SimulatedSchedule& sim = scratch->sim;
  scratch->job_status.resize(nj);
  scratch->end_time.resize(nr);
  scratch->tfs.resize(nr);
  scratch->ttl_s.resize(nr);
  scratch->job_end.resize(nj);
  ml::FeatureMatrix& stacking = scratch->ttl.matrix;
  stacking.ClearRows();
  for (size_t k = 0; k < nj; ++k) {
    const dag::JobGraph& graph = jobs[k]->graph;
    const size_t r0 = scratch->first_row[k];
    const size_t n = graph.num_stages();
    scratch->job_status[k] = SimulateScheduleInto(
        graph, std::span<const double>(scratch->exec_s.data() + r0, n),
        &scratch->sim_scratch, &sim);
    if (!scratch->job_status[k].ok()) {
      // A zero schedule keeps this job's rows aligned with the stage rows;
      // callers skip the job, so they are never read.
      sim.start.assign(n, 0.0);
      sim.end.assign(n, 0.0);
      sim.job_end = 0.0;
    }
    scratch->job_end[k] = sim.job_end;
    for (size_t u = 0; u < n; ++u) {
      scratch->end_time[r0 + u] = sim.end[u];
      scratch->tfs[r0 + u] = sim.start[u];
      scratch->ttl_s[r0 + u] = sim.Ttl(static_cast<dag::StageId>(u));
    }
    if (stacked) TtlEstimator::AppendStackingRows(sim, &scratch->ttl.row, &stacking);
  }

  // Phase 3: one model call per TTL stacking model.
  if (stacked) {
    obs::ScopedTimer ttl_timer(m.infer_seconds);
    bundle_->ttl_estimator().PredictMatrixInto(stacking, types, &scratch->ttl,
                                               &scratch->ttl_s);
    ttl_timer.Stop();
    RecordModelCalls(m.batch_stages, m.batches, scratch->ttl);
  }
  return Status::OK();
}

void DecisionEngine::DecideJobsInto(std::span<const workload::JobInstance* const> jobs,
                                    const telemetry::HistoricStats& stats,
                                    const DecideOptions& options,
                                    DecideScratch* scratch,
                                    std::span<JobDecision> slots) const {
  PHOEBE_CHECK(slots.size() == jobs.size());
  const size_t nj = jobs.size();
  if (!IsMlSource(options.source)) {
    for (size_t k = 0; k < nj; ++k) {
      slots[k].status =
          DecideJobInto(*jobs[k], stats, options, scratch, &slots[k].decision);
    }
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  if (Status st = InferCostsInto(jobs, stats, options.source, scratch); !st.ok()) {
    for (JobDecision& slot : slots) slot.status = st;
    return;
  }

  // Phase 4: each job's costs, then the optimizer.
  for (size_t k = 0; k < nj; ++k) {
    slots[k].status = scratch->job_status[k];
    if (!slots[k].status.ok()) continue;
    JobCostsInto(*jobs[k], k, *scratch, &scratch->costs);
    slots[k].status =
        OptimizeJobInto(*jobs[k], scratch->costs, options, scratch, &slots[k].decision);
  }

  // The shared phases have no per-job duration; each job is charged an equal
  // share of the call, so the histogram's count is jobs and its sum is time.
  obs::Histogram* decide_seconds = metrics_for(options.source).decide_seconds;
  if (decide_seconds != nullptr && nj > 0) {
    const double share =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
        static_cast<double>(nj);
    for (size_t k = 0; k < nj; ++k) decide_seconds->Observe(share);
  }
}

}  // namespace phoebe::core
