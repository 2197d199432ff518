#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/threadpool.h"

namespace phoebe::core {

std::vector<cluster::CutSet> FleetDayReport::AdmittedCuts() const {
  std::vector<cluster::CutSet> cuts(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].admitted) cuts[i] = outcomes[i].cut;
  }
  return cuts;
}

Status FleetConfig::Validate() const {
  if (std::isnan(storage_budget_bytes) || storage_budget_bytes <= 0.0) {
    return Status::InvalidArgument(
        "storage_budget_bytes must be positive (infinite = unbudgeted)");
  }
  if (!std::isfinite(expected_arrivals) || expected_arrivals < 0.0) {
    return Status::InvalidArgument(
        "expected_arrivals must be finite and >= 0 (0 = calibration size)");
  }
  if (num_cuts < 1) {
    return Status::InvalidArgument("num_cuts must be >= 1");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency)");
  }
  return template_cache.Validate();
}

DecisionArm::DecisionArm(const DecisionEngine* engine, FleetConfig config)
    : engine_(engine), config_(config), config_status_(config.Validate()),
      template_cache_(config.template_cache.capacity) {
  PHOEBE_CHECK(engine != nullptr);
  if (obs::MetricsRegistry* reg = config_.metrics) {
    metrics_.day_seconds = reg->histogram("fleet.day.seconds");
    metrics_.decide_seconds = reg->histogram("fleet.phase.decide.seconds");
    metrics_.admission_seconds = reg->histogram("fleet.phase.admission.seconds");
    metrics_.decide_day_seconds = reg->histogram("fleet.shard.decide_day.seconds");
    metrics_.replay_day_seconds = reg->histogram("fleet.shard.replay_day.seconds");
    metrics_.cache_lookup_seconds = reg->histogram("fleet.cache.lookup.seconds");
    metrics_.cache_insert_seconds = reg->histogram("fleet.cache.insert.seconds");
    metrics_.cache_hits = reg->counter("fleet.cache.hits");
    metrics_.cache_misses = reg->counter("fleet.cache.misses");
    metrics_.cache_evictions = reg->counter("fleet.cache.evictions");
    metrics_.jobs_decided = reg->counter("fleet.decide.jobs");
    const int threads = ThreadPool::Resolve(config_.num_threads);
    metrics_.worker_jobs.reserve(static_cast<size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      metrics_.worker_jobs.push_back(
          reg->counter("fleet.worker." + std::to_string(w) + ".jobs"));
    }
  }
}

namespace {

using DecisionSlots = std::vector<std::optional<Result<FleetDecision>>>;

/// Phase 1 of the day loop: decide the jobs named by `which` (ascending
/// indices into `jobs`), writing job i's decision or error to (*slots)[i].
/// The jobs go to DecisionEngine::DecideJobsInto in one day-batched call at
/// one thread, or as one contiguous chunk per worker. Each worker owns its
/// own arena, heap-boxed so workers never share cache lines;
/// ParallelForWorker hands each chunk its worker id, which makes arena reuse
/// race-free by construction. A job's decision does not depend on which
/// chunk, arena or thread computed it (see DecideJobsInto), and slots are
/// written by index, so the result is independent of scheduling. Each arm
/// builds its own arenas per decide phase — arenas are never shared across
/// arms.
/// `jobs_decided`/`worker_jobs` are the arm's (possibly null/empty)
/// telemetry counters; per-worker attribution never touches the slots.
void DecideAll(const DecisionEngine& engine, const FleetConfig& config,
               const std::vector<workload::JobInstance>& jobs,
               std::span<const size_t> which, const telemetry::HistoricStats& stats,
               obs::Counter* jobs_decided, const std::vector<obs::Counter*>& worker_jobs,
               DecisionSlots* slots) {
  const size_t n = which.size();
  std::vector<const workload::JobInstance*> batch(n);
  for (size_t k = 0; k < n; ++k) batch[k] = &jobs[which[k]];
  std::vector<JobDecision> out(n);
  const DecideOptions options = config.decide_options();
  const int threads = ThreadPool::Resolve(config.num_threads);
  const size_t chunks = std::min(static_cast<size_t>(std::max(threads, 1)), n);
  std::vector<std::unique_ptr<DayDecideScratch>> arenas(chunks);
  for (auto& a : arenas) a = std::make_unique<DayDecideScratch>();
  auto decide_chunk = [&](int worker, size_t c) {
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    engine.DecideJobsInto(std::span(batch).subspan(begin, end - begin), stats, options,
                          arenas[static_cast<size_t>(worker)].get(),
                          std::span(out).subspan(begin, end - begin));
    obs::Add(jobs_decided, static_cast<int64_t>(end - begin));
    if (static_cast<size_t>(worker) < worker_jobs.size()) {
      obs::Add(worker_jobs[static_cast<size_t>(worker)],
               static_cast<int64_t>(end - begin));
    }
  };
  if (chunks <= 1) {
    if (n > 0) decide_chunk(0, 0);
  } else {
    ThreadPool pool(static_cast<int>(chunks));
    pool.ParallelForWorker(chunks, decide_chunk);
  }
  for (size_t k = 0; k < n; ++k) {
    std::optional<Result<FleetDecision>>& slot = (*slots)[which[k]];
    if (out[k].status.ok()) {
      slot.emplace(std::move(out[k].decision));
    } else {
      slot.emplace(std::move(out[k].status));
    }
  }
}

/// Indices of the jobs eligible for a decision (>= 2 stages).
std::vector<size_t> EligibleJobs(const std::vector<workload::JobInstance>& jobs) {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].graph.num_stages() >= 2) eligible.push_back(i);
  }
  return eligible;
}

}  // namespace

Status DecisionArm::Calibrate(const DayContext& history) {
  PHOEBE_RETURN_NOT_OK(config_status_);
  const std::vector<workload::JobInstance>& history_jobs = *history.jobs;
  calibration_.clear();
  DecisionSlots decisions(history_jobs.size());
  DecideAll(*engine_, config_, history_jobs, EligibleJobs(history_jobs), *history.stats,
            metrics_.jobs_decided, metrics_.worker_jobs, &decisions);
  for (size_t i = 0; i < history_jobs.size(); ++i) {
    if (!decisions[i].has_value()) continue;  // < 2 stages
    const Result<FleetDecision>& d = *decisions[i];
    PHOEBE_RETURN_NOT_OK(d.status());
    const CutResult& cut = d->combined;
    if (cut.cut.empty() || cut.global_bytes <= 0.0) continue;
    calibration_.push_back(KnapsackItem{cut.global_bytes, cut.objective});
  }
  if (calibration_.empty()) {
    return Status::FailedPrecondition("no checkpointable jobs in calibration history");
  }
  calibrated_ = true;
  return Status::OK();
}

Result<FleetDayDecisions> DecisionArm::DecideDay(const DayContext& ctx) const {
  PHOEBE_RETURN_NOT_OK(config_status_);
  obs::ScopedTimer day_timer(metrics_.decide_day_seconds);
  const std::vector<workload::JobInstance>& jobs = *ctx.jobs;
  // Fresh decisions for *every* eligible job, never consulting the template
  // cache: a shard process has no cache state, and the merge's ReplayDay only
  // consumes the slots RunDay would have computed (leaders / all jobs), so
  // extra slots cost shard CPU but never change the merged report.
  DecisionSlots slots(jobs.size());
  DecideAll(*engine_, config_, jobs, EligibleJobs(jobs), *ctx.stats,
            metrics_.jobs_decided, metrics_.worker_jobs, &slots);
  FleetDayDecisions day;
  day.decisions.resize(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!slots[i].has_value()) continue;
    PHOEBE_RETURN_NOT_OK(slots[i]->status());
    day.decisions[i].emplace(std::move(**slots[i]));
  }
  return day;
}

Result<FleetDayReport> DecisionArm::RunDay(const DayContext& ctx) {
  return RunDayImpl(ctx, /*precomputed=*/nullptr);
}

Result<FleetDayReport> DecisionArm::ReplayDay(const DayContext& ctx,
                                              const FleetDayDecisions& precomputed) {
  obs::ScopedTimer replay_timer(metrics_.replay_day_seconds);
  return RunDayImpl(ctx, &precomputed);
}

Result<FleetDayReport> DecisionArm::RunDayImpl(const DayContext& ctx,
                                               const FleetDayDecisions* precomputed) {
  PHOEBE_RETURN_NOT_OK(config_status_);
  obs::ScopedTimer day_timer(metrics_.day_seconds);
  const std::vector<workload::JobInstance>& jobs = *ctx.jobs;
  const telemetry::HistoricStats& stats = *ctx.stats;
  const bool budgeted = std::isfinite(config_.storage_budget_bytes);
  if (budgeted && !calibrated_) {
    return Status::FailedPrecondition("Calibrate must run before a budgeted RunDay");
  }
  if (precomputed != nullptr) {
    if (precomputed->decisions.size() != jobs.size()) {
      return Status::InvalidArgument("precomputed decisions do not match day size");
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      const bool eligible = jobs[i].graph.num_stages() >= 2;
      if (precomputed->decisions[i].has_value() != eligible) {
        return Status::InvalidArgument(
            "precomputed decision eligibility does not match the day's jobs");
      }
      if (!eligible) continue;
      for (const cluster::CutSet& cut : precomputed->decisions[i]->cuts) {
        if (cut.before_cut.size() != jobs[i].graph.num_stages()) {
          return Status::InvalidArgument(
              "precomputed cut size does not match the job's stage count");
        }
      }
    }
  }

  // Admission policy for the day.
  std::unique_ptr<OnlineKnapsack> knapsack;
  if (budgeted) {
    double arrivals = config_.expected_arrivals > 0.0
                          ? config_.expected_arrivals
                          : static_cast<double>(calibration_.size());
    PHOEBE_ASSIGN_OR_RETURN(
        OnlineKnapsack k,
        OnlineKnapsack::Calibrate(config_.storage_budget_bytes, arrivals, calibration_));
    knapsack = std::make_unique<OnlineKnapsack>(std::move(k));
  }

  const TemplateCacheConfig& cache_cfg = config_.template_cache;
  FleetDayReport report;

  // Phase 1 (parallel): per-job decisions, or — on the ReplayDay path — the
  // precomputed ones, slotted in where this phase would have computed them.
  //
  // With the template cache on, a serial arrival-order prepass first resolves
  // hits against the cache (as left by prior RunDay/ReplayDay calls on this
  // arm) and designates the first instance of each unseen key as that
  // key's leader; the parallel phase then computes leaders only, and a serial
  // admission prologue copies leader decisions to their followers and inserts
  // them into the cache — so every cache mutation happens serially in arrival
  // order and the report stays byte-identical for any thread count. Replay
  // substitutes precomputed decisions for exactly the leader computations
  // (which DecideDay produced fresh, like this phase would), so cache state,
  // hit/miss/eviction counts, and LRU order evolve identically.
  DecisionSlots decisions(jobs.size());
  std::vector<TemplateCacheKey> keys;
  std::vector<size_t> leader_of;  // follower i -> index of its leader
  std::vector<char> is_leader;
  const int64_t evictions_before = template_cache_.evictions();
  obs::ScopedTimer decide_timer(metrics_.decide_seconds);
  if (!cache_cfg.enabled) {
    if (precomputed != nullptr) {
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (precomputed->decisions[i].has_value()) {
          decisions[i].emplace(*precomputed->decisions[i]);
        }
      }
    } else {
      DecideAll(*engine_, config_, jobs, EligibleJobs(jobs), stats,
                metrics_.jobs_decided, metrics_.worker_jobs, &decisions);
    }
  } else {
    keys.resize(jobs.size());
    leader_of.assign(jobs.size(), jobs.size());
    is_leader.assign(jobs.size(), 0);
    std::map<TemplateCacheKey, size_t> day_leaders;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].graph.num_stages() < 2) continue;
      keys[i] = BuildTemplateCacheKey(jobs[i], stats, config_.source,
                                      config_.objective, config_.num_cuts,
                                      cache_cfg.quantize_bps);
      auto leader_it = day_leaders.find(keys[i]);
      if (leader_it != day_leaders.end()) {
        // A same-key instance already leads this day: follow it.
        leader_of[i] = leader_it->second;
        ++report.cache_hits;
        continue;
      }
      obs::ScopedTimer lookup_timer(metrics_.cache_lookup_seconds);
      const FleetDecision* hit = template_cache_.Lookup(keys[i]);
      lookup_timer.Stop();
      if (hit != nullptr) {
        decisions[i].emplace(*hit);
        ++report.cache_hits;
        continue;
      }
      day_leaders.emplace(keys[i], i);
      is_leader[i] = 1;
      ++report.cache_misses;
    }
    if (precomputed != nullptr) {
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (is_leader[i]) decisions[i].emplace(*precomputed->decisions[i]);
      }
    } else {
      std::vector<size_t> leaders;
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (is_leader[i]) leaders.push_back(i);
      }
      DecideAll(*engine_, config_, jobs, leaders, stats, metrics_.jobs_decided,
                metrics_.worker_jobs, &decisions);
    }
    // Serial admission prologue: insert leader decisions into the cache and
    // copy them to same-day followers, in arrival order, before the admission
    // loop below moves anything out of a leader's decision.
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (is_leader[i] && decisions[i]->ok()) {
        obs::ScopedTimer insert_timer(metrics_.cache_insert_seconds);
        template_cache_.Insert(keys[i], **decisions[i]);
      } else if (leader_of[i] < jobs.size()) {
        decisions[i] = decisions[leader_of[i]];  // copy, leader index < i
      }
    }
  }
  decide_timer.Stop();

  // Phase 2 (serial): replay the online-knapsack admission in arrival order.
  // Every accumulation happens here, in job order, which is what makes the
  // report byte-identical to the legacy serial driver for any thread count.
  obs::ScopedTimer admission_timer(metrics_.admission_seconds);
  report.outcomes.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const workload::JobInstance& job = jobs[i];
    FleetJobOutcome out;
    out.job_id = job.job_id;
    report.total_temp_byte_seconds += job.TempByteSeconds();
    if (decisions[i].has_value()) {
      ++report.jobs_considered;
      Result<FleetDecision>& d = *decisions[i];
      PHOEBE_RETURN_NOT_OK(d.status());
      const CutResult& cut = d->combined;
      if (!cut.cut.empty()) {
        ++report.jobs_with_cut;
        out.cut = cut.cut;
        out.cuts = std::move(d->cuts);
        out.predicted_value = cut.objective;
        bool admit = !knapsack ||
                     knapsack->Offer(KnapsackItem{cut.global_bytes, cut.objective});
        if (admit) {
          out.admitted = true;
          out.global_bytes = cut.global_bytes;
          out.realized_value =
              RealizedTempSavingMultiCut(job, out.cuts) * job.TempByteSeconds();
          ++report.jobs_admitted;
          report.storage_used_bytes += cut.global_bytes;
          report.realized_saving_byte_seconds += out.realized_value;
        }
      }
    }
    report.outcomes.push_back(std::move(out));
  }
  admission_timer.Stop();
  if (cache_cfg.enabled) {
    report.cache_evictions = template_cache_.evictions() - evictions_before;
  }
  if (knapsack) report.knapsack_threshold = knapsack->threshold();
  // Telemetry mirrors of the day's cache traffic (flows, so they accumulate
  // across days; the per-day report keeps the authoritative values).
  obs::Add(metrics_.cache_hits, report.cache_hits);
  obs::Add(metrics_.cache_misses, report.cache_misses);
  obs::Add(metrics_.cache_evictions, report.cache_evictions);
  return report;
}

}  // namespace phoebe::core
