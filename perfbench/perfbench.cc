// perfbench: the repo benchmark binary. One process runs one workload for a
// fixed number of seconds and prints one JSON result line (see README.md in
// this directory for the workloads, the metrics and why each was chosen).
//
//   perfbench --workload cold-day --seed 1 --seconds 20 --trace 0
//
// Every input is generated from --seed; repetitions replay identical inputs.
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 the
// benchmark also wraps its calls into each layer's public functions in
// spans, keeps them in memory, writes them once at exit, and reports
// per-layer counts and self time. No instrumentation lives in src/: the
// traced run only adds spans here and reads the counters the program
// already exports through an attached obs::MetricsRegistry.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "core/checkpoint_ip.h"
#include "core/engine.h"
#include "core/evaluate.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "telemetry/repository.h"
#include "testing/generators.h"
#include "workload/generator.h"

namespace phoebe::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupReps = 3;

// ---------------------------------------------------------------------------
// Metric tables. Every workload prints every metric of its mode. A
// workload must measure every end-to-end metric and the per-layer metrics
// marked for it; a missing one fails the run. A layer the workload never
// enters reports 0 (no work done there).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"decisions_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
};

/// Workloads, as a bit set: which workloads must set a per-layer metric.
enum : unsigned { kCold = 1, kLife = 2, kServe = 4, kOracle = 8, kAll = 15 };

struct LayerDef {
  const char* name;
  const char* unit;
  unsigned set_by;  ///< workloads that must measure it; the others print 0
};

/// Per-layer metrics of the traced run. A time is a layer's self time per
/// unit of the work it serves (per set-up repetition, per call, per decided
/// day, per solve), never a share of the run, so it does not move when
/// another layer or the iteration count does.
constexpr LayerDef kPerLayer[] = {
    {"quality.temp_saving_frac", "frac", kAll},
    {"workload.generate_s", "s/setup", kAll},
    {"telemetry.add_day_s", "s/call", kCold | kLife | kServe},
    {"telemetry.stats_before_s", "s/call", kCold | kLife | kServe},
    {"ml.train_s", "s/call", kCold | kLife | kServe},
    {"ml.train_rows", "count/call", kCold | kLife | kServe},
    {"core.features.matrix_s", "s/day", kCold},
    {"core.predictors.exec_s", "s/day", kCold},
    {"core.predictors.size_s", "s/day", kCold},
    {"core.predictors.rows_per_call", "count/call", kCold},
    {"core.ttl_s", "s/day", kCold},
    {"core.simulator_s", "s/day", kCold},
    {"core.checkpoint.sweep_s", "s/day", kCold},
    {"core.engine.self_s", "s/day", kCold},
    {"core.engine.decide_us_p50", "us", kCold},
    {"core.engine.decide_us_p99", "us", kCold},
    {"core.decide_accounted_frac", "frac", kCold},
    {"core.fleet.decide_day_s", "s/day", kCold},
    {"core.fleet.replay_day_s", "s/day", kCold},
    {"core.decision_cache.hits", "count/pass", kLife},
    {"core.decision_cache.misses", "count/pass", kLife},
    {"core.decision_cache.evictions", "count/pass", kLife},
    {"core.decision_cache.hit_rate", "frac", kLife},
    {"core.knapsack.offered", "count/day", kCold},
    {"core.knapsack.admitted", "count/day", kCold},
    {"core.knapsack.threshold", "ratio", kCold},
    {"cluster.realized_eval_s", "s/day", kCold},
    {"solver.ip1_ms", "ms/solve", kOracle},
    {"solver.ip2_ms", "ms/solve", kOracle},
    {"solver.nodes", "count/solve", kOracle},
    {"solver.pivots", "count/solve", kOracle},
    {"solver.nodes_per_s", "1/s", kOracle},
    {"solver.pivots_per_s", "1/s", kOracle},
    {"solver.nonoptimal", "count", kOracle},
    {"solver.ip_vs_sweep_ratio", "ratio", kOracle},
    {"serve.client.encode_us", "us/call", kServe},
    {"serve.client.decode_us", "us/call", kServe},
    {"serve.transport_us_p50", "us", kServe},
    {"serve.queue_depth_max", "count", kServe},
    {"serve.batch_size_mean", "count/batch", kServe},
    {"serve.request_ms_p99", "ms", kServe},
    {"serve.latency_p50_ms.low", "ms", kServe},
    {"serve.latency_p50_ms.mid", "ms", kServe},
    {"serve.latency_p50_ms.high", "ms", kServe},
    {"serve.latency_p99_ms.low", "ms", kServe},
    {"serve.latency_p99_ms.mid", "ms", kServe},
    {"serve.latency_p99_ms.high", "ms", kServe},
    {"serve.max_rps_within_slo", "1/s", kServe},
    {"serve.generator_late_ms_max", "ms", kServe},
    {"serve.backlog_max", "count", kServe},
    {"lifecycle.serve_day_s", "s/day", kLife},
    {"lifecycle.retrain_day_s", "s/day", kLife},
    {"lifecycle.train_s", "s/call", kLife},
    {"lifecycle.backtest_s", "s/call", kLife},
    {"lifecycle.retrains", "count/pass", kLife},
    {"lifecycle.promotions", "count/pass", kLife},
    {"obs.tracing_overhead_frac", "frac", kAll},
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Tracing: spans with name, start, end and parent, kept in memory and
// written once at exit. A null tracer makes every span a no-op that never
// reads the clock, which is what the untraced runs use.

class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    double start;  ///< seconds since the tracer was created
    double end;
    int parent;    ///< index of the enclosing span, -1 for a root span
  };

  int Begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }

  /// Durations of every span named `name`, in order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Self time per span name: span time minus the time its child spans
  /// cover. Children nest strictly inside their parent (one thread, stack
  /// discipline), so the covered time is the sum of child durations.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  Status Write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return Status::IoError("cannot write trace file " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      f << StrFormat("{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d}\n",
                     i, s.name, s.start, s.end, s.parent);
    }
    return f ? Status::OK() : Status::IoError("short write to " + path);
  }

 private:
  double Now() const { return Secs(t0_, Clock::now()); }

  Clock::time_point t0_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; no-op (and no clock read) when the tracer is null.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t ? t->Begin(name) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

double SelfOf(const std::map<std::string, double>& self, const char* name) {
  auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Run result: operations attempted and failed, correctness violations, and
// metric values by name.

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> metrics;

  /// A failed correctness check: counts as one failed operation.
  void Violation(const std::string& what) {
    ++failed;
    if (violations.size() < 20) violations.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Violation(what);
  }
};

struct Options {
  std::string workload;
  int seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string source_digest;
};

/// Runs `unit` repeatedly until `seconds` have passed (and at least
/// `min_reps` times). `unit` returns the seconds its measured call took
/// (checks around the call stay out of the timing); returns those times.
template <class F>
std::vector<double> RepeatFor(double seconds, int min_reps, F&& unit) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         Secs(start, Clock::now()) < seconds) {
    times.push_back(unit());
  }
  return times;
}

/// Runs `setup` kSetupReps times (the last one traced) and returns the
/// median wall time. Each repetition rebuilds the inputs from the seed, and
/// `digest` (what the repetition built) must agree across repetitions.
template <class F>
double TimedSetup(Tracer* tracer, RunResult* result, F&& setup) {
  std::vector<double> times;
  std::optional<uint32_t> first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const uint32_t digest = setup(rep + 1 == kSetupReps ? tracer : nullptr);
    times.push_back(Secs(t0, Clock::now()));
    if (!first) first = digest;
    result->Check(digest == *first, "set-up repetition built different inputs");
  }
  return Median(times);
}

/// Per-layer metrics of the traced set-up repetition (TimedSetup traces
/// the last one) and of any later span of the same layers: generation per
/// set-up repetition; repository and training time per call. Sets only the
/// layers that ran.
void SetupLayerMetrics(const Tracer& tr, RunResult* result) {
  auto& l = result->metrics;
  const std::vector<double> gen = tr.Durations("workload.generate");
  if (!gen.empty()) l["workload.generate_s"] = Sum(gen);
  for (const char* layer : {"telemetry.add_day", "telemetry.stats_before", "ml.train"}) {
    const std::vector<double> d = tr.Durations(layer);
    if (!d.empty()) l[std::string(layer) + "_s"] = Mean(d);
  }
}

/// Every workload draws its jobs from one fixed fleet of recurring
/// templates (the generator seed below); --seed picks the week of that
/// fleet's history the run replays, so seeds differ in their job instances,
/// drift state and trained models but not in the template population.
constexpr uint64_t kFleetSeed = 7;

/// First generator day for a seed: the same weekday for every seed, so the
/// weekly seasonality does not differ between seeds.
int FirstDay(int seed) { return 7 * (seed % 512); }

/// The fleet's generator. Callers store generator day FirstDay(seed) + k as
/// repository day k.
workload::WorkloadGenerator FleetGenerator(int templates, double instances_per_day) {
  workload::WorkloadConfig wcfg;
  wcfg.seed = kFleetSeed;
  wcfg.num_templates = templates;
  wcfg.mean_instances_per_day = instances_per_day;
  return workload::WorkloadGenerator(wcfg);
}

/// Pinned report digests for seed 1: the byte-level fixed points of the
/// decisions. A change that alters any decision byte fails this check.
constexpr uint32_t kPinnedColdDaySeed1 = 0x9fbe7f55;
constexpr uint32_t kPinnedLifecycleSeed1 = 0x6b3f8942;

void CheckPinned(const Options& opt, uint32_t pinned, uint32_t digest, RunResult* result) {
  if (opt.seed != 1) return;
  result->Check(digest == pinned,
                StrFormat("report digest %08x != pinned %08x", digest, pinned));
}

// ---------------------------------------------------------------------------
// cold-day: one large day through one DecisionArm, template cache off, one
// thread, ml_stacked, one cut, finite storage budget calibrated on the
// previous day.

// The traffic mix of the measured fleet (~400 templates, ~50 instances per
// template per day) scaled down in templates, not in the per-template rate.
constexpr int kColdTemplates = 120;
constexpr double kColdInstancesPerDay = 50.0;
constexpr int kColdTrainDay = 0;      // its first kColdTrainJobs train the models
constexpr int kColdPrevDay = 1;       // calibration + budget day
constexpr int kColdDay = 2;           // the measured day
constexpr size_t kColdTrainJobs = 1200;
constexpr size_t kColdCalibrationJobs = 1000;
constexpr double kColdBudgetShare = 0.5;  // of the previous day's demand

struct ColdDayState {
  telemetry::WorkloadRepository repo;
  std::unique_ptr<core::PhoebePipeline> pipeline;
  std::vector<workload::JobInstance> calibration;  ///< head of the previous day
  telemetry::HistoricStats prev_stats;
  telemetry::HistoricStats day_stats;
  double train_rows = 0.0;
};

uint32_t DigestJobs(const std::vector<workload::JobInstance>& jobs, uint32_t seed) {
  std::string s;
  for (const workload::JobInstance& j : jobs) {
    s += StrFormat("%lld %d %zu %.17g\n", static_cast<long long>(j.job_id),
                   j.template_id, j.graph.num_stages(), j.TempByteSeconds());
  }
  return Crc32(s, seed);
}

/// Generates the three days and trains the models on the head of day 0
/// (a subset keeps set-up short; the measured day is full size).
uint32_t SetupColdDay(int seed, Tracer* tr, ColdDayState* st) {
  workload::WorkloadGenerator gen = FleetGenerator(kColdTemplates, kColdInstancesPerDay);
  st->repo = telemetry::WorkloadRepository();
  telemetry::WorkloadRepository train_repo;
  uint32_t digest = 0;
  for (int d = 0; d <= kColdDay; ++d) {
    std::vector<workload::JobInstance> jobs;
    {
      Span s(tr, "workload.generate");
      jobs = gen.GenerateDay(FirstDay(seed) + d);
    }
    digest = DigestJobs(jobs, digest);
    if (d == kColdTrainDay) {
      std::vector<workload::JobInstance> head(
          jobs.begin(), jobs.begin() + static_cast<long>(std::min(kColdTrainJobs, jobs.size())));
      st->train_rows = 0.0;
      for (const auto& j : head) st->train_rows += static_cast<double>(j.graph.num_stages());
      train_repo.AddDay(d, std::move(head)).Check();
    }
    if (d == kColdPrevDay) {
      st->calibration.assign(
          jobs.begin(),
          jobs.begin() + static_cast<long>(std::min(kColdCalibrationJobs, jobs.size())));
    }
    Span s(tr, "telemetry.add_day");
    st->repo.AddDay(d, std::move(jobs)).Check();
  }
  st->pipeline = std::make_unique<core::PhoebePipeline>();
  {
    Span s(tr, "ml.train");
    st->pipeline->Train(train_repo, kColdTrainDay, 1).Check();
  }
  {
    Span s(tr, "telemetry.stats_before");
    st->prev_stats = st->repo.StatsBefore(kColdPrevDay);
  }
  {
    Span s(tr, "telemetry.stats_before");
    st->day_stats = st->repo.StatsBefore(kColdDay);
  }
  return Crc32(StrFormat("%08x %08x", digest, st->pipeline->bundle()->checksum()));
}

/// The arm's config. The budget is a share of what an unlimited arm stores
/// on the calibration sample, scaled to the measured day, so admission has
/// to reject jobs.
core::FleetConfig ColdDayFleet(const ColdDayState& st) {
  core::FleetConfig unlimited;
  unlimited.num_threads = 1;
  core::DecisionArm probe(&st.pipeline->engine(), unlimited);
  auto prev = probe.RunDay(core::DayContext(kColdPrevDay, st.calibration, st.prev_stats));
  prev.status().Check();
  const double day_jobs = static_cast<double>(st.repo.Day(kColdDay).size());
  core::FleetConfig fleet;
  fleet.num_threads = 1;
  fleet.num_cuts = 1;
  fleet.source = core::CostSource::kMlStacked;
  fleet.expected_arrivals = day_jobs;
  fleet.storage_budget_bytes = kColdBudgetShare * prev->storage_used_bytes * day_jobs /
                               static_cast<double>(st.calibration.size());
  return fleet;
}

/// Decides the day the way DecisionEngine::DecideJobInto does (single cut,
/// ml_stacked), one public layer call per span, and checks every cut and
/// objective against the untraced RunDay outcomes.
void DecomposeColdDay(const ColdDayState& st, const core::FleetDayReport& reference,
                      Tracer* tr, RunResult* result) {
  const core::PipelineBundle& bundle = *st.pipeline->bundle();
  const std::vector<workload::JobInstance>& jobs = st.repo.Day(kColdDay);
  core::PredictScratch exec_scratch, size_scratch, ttl_scratch;
  std::vector<double> exec;
  core::SimulatorScratch sim_scratch;
  core::SimulatedSchedule sim;
  core::StageCosts costs;
  core::CheckpointScratch ck;
  core::CutResult cut;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const workload::JobInstance& job = jobs[i];
    const size_t n = job.graph.num_stages();
    if (n < 2) continue;
    {
      Span engine(tr, "core.engine");
      {
        Span s(tr, "core.predictors.exec");
        bundle.exec_predictor().PredictJobInto(job, st.day_stats, &exec_scratch, &exec);
      }
      {
        Span s(tr, "core.predictors.size");
        bundle.size_predictor().PredictJobInto(job, st.day_stats, &size_scratch,
                                               &costs.output_bytes);
      }
      costs.num_tasks.resize(n);
      for (size_t u = 0; u < n; ++u) costs.num_tasks[u] = job.truth[u].num_tasks;
      {
        Span s(tr, "core.simulator");
        core::SimulateScheduleInto(job.graph, exec, &sim_scratch, &sim).Check();
      }
      costs.end_time.assign(sim.end.begin(), sim.end.end());
      costs.tfs.assign(sim.start.begin(), sim.start.end());
      costs.job_end = sim.job_end;
      {
        Span s(tr, "core.ttl");
        bundle.ttl_estimator().PredictInto(job, sim, &ttl_scratch, &costs.ttl);
      }
      Span s(tr, "core.checkpoint.sweep");
      core::OptimizeTempStorageInto(job.graph, costs, &ck, &cut).Check();
    }
    const core::FleetJobOutcome& out = reference.outcomes[i];
    const bool same = cut.cut.before_cut == out.cut.before_cut &&
                      (cut.cut.empty() || cut.objective == out.predicted_value);
    result->Check(same, StrFormat("job %lld: traced per-layer cut differs from RunDay",
                                  static_cast<long long>(job.job_id)));
  }
  // Featurization cost. PredictJobInto featurizes internally and the public
  // API has no traverse-only call, so this is measured by a separate pass:
  // it is a share of core.predictors.*_s, not time on top of it.
  std::vector<double> row;
  ml::FeatureMatrix exec_m, size_m;
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    Span s(tr, "core.features.matrix");
    bundle.exec_predictor().featurizer().JobMatrixInto(job, st.day_stats, &row, &exec_m);
    bundle.size_predictor().featurizer().JobMatrixInto(job, st.day_stats, &row, &size_m);
  }
}

double RealizedSaving(const std::vector<workload::JobInstance>& jobs,
                      const core::FleetDayReport& report) {
  double saved = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const core::FleetJobOutcome& out = report.outcomes[i];
    if (!out.admitted) continue;
    saved += core::RealizedTempSavingMultiCut(jobs[i], out.cuts) *
             jobs[i].TempByteSeconds();
  }
  return saved;
}

void RunColdDay(const Options& opt, Tracer* tr, RunResult* result) {
  ColdDayState st;
  const double setup_s = TimedSetup(tr, result, [&](Tracer* t) {
    return SetupColdDay(opt.seed, t, &st);
  });
  const std::vector<workload::JobInstance>& jobs = st.repo.Day(kColdDay);
  const core::DayContext ctx(kColdDay, jobs, st.day_stats);
  const core::DayContext prev_ctx(kColdPrevDay, st.calibration, st.prev_stats);
  // Warm-up (part of set-up): budget, calibration and a first day, which is
  // also the reference report every repetition must reproduce.
  const auto w0 = Clock::now();
  const core::FleetConfig fleet = ColdDayFleet(st);
  core::DecisionArm arm(&st.pipeline->engine(), fleet);
  arm.Calibrate(prev_ctx).Check();
  auto warm = arm.RunDay(ctx);
  warm.status().Check();
  const double warmup_s = Secs(w0, Clock::now());
  const core::FleetDayReport reference = std::move(*warm);
  const uint32_t ref_digest = Crc32(core::FleetDayReportJson(reference, kColdDay));
  CheckPinned(opt, kPinnedColdDaySeed1, ref_digest, result);

  const double measure_s = tr ? opt.seconds / 2.0 : opt.seconds;
  auto unit = [&] {
    result->attempted += reference.jobs_considered;
    const auto t0 = Clock::now();
    auto r = arm.RunDay(ctx);
    const double secs = Secs(t0, Clock::now());
    if (!r.ok()) {
      result->failed += reference.jobs_considered;
    } else {
      result->Check(Crc32(core::FleetDayReportJson(*r, kColdDay)) == ref_digest,
                    "RunDay report differs between repetitions");
    }
    return secs;
  };
  const std::vector<double> days = RepeatFor(measure_s, 3, unit);
  auto& m = result->metrics;
  m["setup_s"] = setup_s + warmup_s;
  m["decisions_per_s"] = reference.jobs_considered / Median(days);
  m["latency_ms_p50"] = 1e3 * Median(days);
  m["latency_ms_p90"] = 1e3 * Percentile(days, 0.9);
  m["quality.temp_saving_frac"] = reference.SavingFraction();
  result->Check(reference.jobs_admitted < reference.jobs_with_cut,
                "storage budget admitted every job; the knapsack is not exercised");
  std::fprintf(stderr, "cold-day: %zu jobs, %d considered, %d with cut, %d admitted, %zu days timed\n",
               jobs.size(), reference.jobs_considered, reference.jobs_with_cut,
               reference.jobs_admitted, days.size());
  if (tr == nullptr) return;

  // Traced half: the same day through an arm with a metrics registry, split
  // into its decide and replay phases.
  obs::MetricsRegistry registry;
  core::DecisionEngine engine_t(st.pipeline->bundle(), &registry);
  core::FleetConfig fleet_t = fleet;
  fleet_t.metrics = &registry;
  core::DecisionArm arm_t(&engine_t, fleet_t);
  arm_t.Calibrate(prev_ctx).Check();
  std::vector<double> decide_s, replay_s, eval_s;
  auto traced_unit = [&] {
    result->attempted += reference.jobs_considered;
    const auto t0 = Clock::now();
    auto dec = [&] {
      Span s(tr, "core.fleet.decide_day");
      return arm_t.DecideDay(ctx);
    }();
    const auto t1 = Clock::now();
    dec.status().Check();
    auto rep = [&] {
      Span s(tr, "core.fleet.replay_day");
      return arm_t.ReplayDay(ctx, *dec);
    }();
    const auto t2 = Clock::now();
    rep.status().Check();
    decide_s.push_back(Secs(t0, t1));
    replay_s.push_back(Secs(t1, t2));
    result->Check(Crc32(core::FleetDayReportJson(*rep, kColdDay)) == ref_digest,
                  "traced decide+replay report differs from untraced RunDay");
    double saved = 0.0;
    {
      Span s(tr, "cluster.realized_eval");
      const auto e0 = Clock::now();
      saved = RealizedSaving(jobs, *rep);
      eval_s.push_back(Secs(e0, Clock::now()));
    }
    result->Check(saved == rep->realized_saving_byte_seconds,
                  "recomputed realized saving differs from the day report");
  };
  std::vector<double> traced;
  const auto start = Clock::now();
  while (traced.size() < 3 || Secs(start, Clock::now()) < measure_s) {
    traced_unit();
    traced.push_back(decide_s.back() + replay_s.back());
  }
  DecomposeColdDay(st, reference, tr, result);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto& l = result->metrics;
  SetupLayerMetrics(*tr, result);
  // The decomposition decides the day once, so its self times are per day.
  const std::map<std::string, double> self = tr->SelfSeconds();
  for (const char* layer : {"core.features.matrix", "core.predictors.exec",
                            "core.predictors.size", "core.ttl", "core.simulator",
                            "core.checkpoint.sweep"}) {
    l[std::string(layer) + "_s"] = SelfOf(self, layer);
  }
  l["core.engine.self_s"] = SelfOf(self, "core.engine");
  const std::vector<double> engine = tr->Durations("core.engine");
  l["core.engine.decide_us_p50"] = 1e6 * Median(engine);
  l["core.engine.decide_us_p99"] = 1e6 * Percentile(engine, 0.99);
  l["core.fleet.decide_day_s"] = Median(decide_s);
  l["core.fleet.replay_day_s"] = Median(replay_s);
  l["core.decide_accounted_frac"] = Sum(engine) / Median(decide_s);
  auto hist = snap.histograms.find("engine.ml_stacked.inference.batch_stages");
  if (hist != snap.histograms.end() && hist->second.count > 0) {
    l["core.predictors.rows_per_call"] = hist->second.sum / hist->second.count;
  }
  l["core.knapsack.offered"] = reference.jobs_with_cut;
  l["core.knapsack.admitted"] = reference.jobs_admitted;
  l["core.knapsack.threshold"] = reference.knapsack_threshold;
  l["cluster.realized_eval_s"] = Median(eval_s);
  l["ml.train_rows"] = st.train_rows;
  l["obs.tracing_overhead_frac"] = Median(traced) / Median(days) - 1.0;
}

// ---------------------------------------------------------------------------
// recurring-lifecycle: consecutive days through one LifecycleDriver with the
// approximate template cache on; a bootstrap retrain, then age-triggered
// retrains with canary backtests.

// The measured lifecycle traffic (~200 templates, ~9.5 instances per
// template per day) scaled down in templates, not in the per-template rate.
constexpr int kLifeTemplates = 70;
constexpr double kLifeInstancesPerDay = 9.5;
constexpr int kLifeDays = 10;
/// Trees per model in the loop: fewer than the default 80, so that a whole
/// pass (three trainings and their canary backtests) takes a few seconds.
constexpr int kLifeTrees = 20;

lifecycle::LifecycleConfig LifecycleBenchConfig(obs::MetricsRegistry* metrics) {
  lifecycle::LifecycleConfig cfg;
  cfg.policy.min_history_days = 2;
  cfg.policy.train_window_days = 3;
  cfg.policy.max_age_days = 3;
  // Accuracy-triggered retrains would make the retrain count depend on the
  // seed; the age trigger alone gives every seed the same schedule.
  cfg.policy.min_exec_r2 = 0.0;
  cfg.backtest_window_days = 2;
  cfg.pipeline.exec_predictor.gbdt.num_trees = kLifeTrees;
  cfg.pipeline.size_predictor.gbdt.num_trees = kLifeTrees;
  cfg.pipeline.ttl.gbdt.num_trees = kLifeTrees;
  cfg.fleet.num_threads = 1;
  cfg.fleet.template_cache.enabled = true;
  cfg.fleet.template_cache.quantize_bps = 5000;
  cfg.metrics = metrics;
  return cfg;
}

struct LifecyclePass {
  std::vector<double> day_s;     ///< AddDay + OnDayCompleted per day
  std::vector<bool> retrained;
  std::string reports;           ///< LifecycleDayReportJson lines
  int64_t jobs_served = 0;
  double saving_weighted = 0.0;  ///< sum of saving_fraction * jobs
  int promotions = 0;
  int64_t failed = 0;
};

LifecyclePass RunLifecyclePass(const std::vector<std::vector<workload::JobInstance>>& days,
                               obs::MetricsRegistry* metrics, Tracer* tr,
                               telemetry::WorkloadRepository* repo_out) {
  LifecyclePass pass;
  telemetry::WorkloadRepository repo;
  lifecycle::LifecycleDriver driver(LifecycleBenchConfig(metrics));
  for (int d = 0; d < static_cast<int>(days.size()); ++d) {
    std::vector<workload::JobInstance> jobs = days[static_cast<size_t>(d)];
    const auto t0 = Clock::now();
    const Status added = [&] {
      Span s(tr, "telemetry.add_day");
      return repo.AddDay(d, std::move(jobs));
    }();
    auto r = [&]() -> Result<lifecycle::LifecycleDayReport> {
      if (!added.ok()) return added;
      Span s(tr, "lifecycle.day");
      return driver.OnDayCompleted(&repo, d);
    }();
    pass.day_s.push_back(Secs(t0, Clock::now()));
    if (!r.ok()) {
      pass.failed += static_cast<int64_t>(days[static_cast<size_t>(d)].size());
      pass.retrained.push_back(false);
      continue;
    }
    pass.retrained.push_back(r->retrained);
    pass.reports += lifecycle::LifecycleDayReportJson(*r) + "\n";
    if (r->served) {
      pass.jobs_served += r->jobs;
      pass.saving_weighted += r->saving_fraction * r->jobs;
    }
    pass.promotions += r->verdict == "promoted" ? 1 : 0;
  }
  if (repo_out != nullptr) *repo_out = std::move(repo);
  return pass;
}

void RunLifecycle(const Options& opt, Tracer* tr, RunResult* result) {
  std::vector<std::vector<workload::JobInstance>> days;
  const double setup_s = TimedSetup(tr, result, [&](Tracer* t) {
    workload::WorkloadGenerator gen = FleetGenerator(kLifeTemplates, kLifeInstancesPerDay);
    days.clear();
    uint32_t digest = 0;
    for (int d = 0; d < kLifeDays; ++d) {
      Span s(t, "workload.generate");
      days.push_back(gen.GenerateDay(FirstDay(opt.seed) + d));
      digest = DigestJobs(days.back(), digest);
    }
    return digest;
  });
  // Warm-up pass (part of set-up): also the reference every later pass must
  // reproduce.
  const auto w0 = Clock::now();
  const LifecyclePass warm = RunLifecyclePass(days, nullptr, nullptr, nullptr);
  const double warmup_s = Secs(w0, Clock::now());
  const uint32_t ref_digest = Crc32(warm.reports);
  CheckPinned(opt, kPinnedLifecycleSeed1, ref_digest, result);

  const double measure_s = tr ? opt.seconds / 2.0 : opt.seconds;
  std::vector<double> day_s, pass_rate, saving;
  auto account = [&](const LifecyclePass& p) {
    result->attempted += p.jobs_served;
    result->failed += p.failed;
    result->Check(Crc32(p.reports) == ref_digest,
                  "lifecycle day reports differ between repetitions");
    day_s.insert(day_s.end(), p.day_s.begin(), p.day_s.end());
    pass_rate.push_back(p.jobs_served / Sum(p.day_s));
    saving.push_back(p.saving_weighted / std::max<int64_t>(1, p.jobs_served));
  };
  std::vector<double> untraced = RepeatFor(measure_s, 2, [&] {
    const LifecyclePass p = RunLifecyclePass(days, nullptr, nullptr, nullptr);
    account(p);
    return Sum(p.day_s);
  });
  auto& m = result->metrics;
  m["setup_s"] = setup_s + warmup_s;
  m["decisions_per_s"] = Median(pass_rate);
  m["latency_ms_p50"] = 1e3 * Median(day_s);
  m["latency_ms_p90"] = 1e3 * Percentile(day_s, 0.9);
  m["quality.temp_saving_frac"] = Median(saving);
  int retrains = 0;
  for (bool r : warm.retrained) retrains += r ? 1 : 0;
  result->Check(retrains >= 2, "lifecycle loop ran fewer than two retrains");
  std::fprintf(stderr,
               "recurring-lifecycle: %d days, %lld jobs served, %d retrains, %d promoted, "
               "%zu passes of %.0f to %.0f jobs/s\n",
               kLifeDays, static_cast<long long>(warm.jobs_served), retrains, warm.promotions,
               untraced.size(), *std::min_element(pass_rate.begin(), pass_rate.end()),
               *std::max_element(pass_rate.begin(), pass_rate.end()));
  if (tr == nullptr) return;

  // Traced half: same passes with spans and an attached registry.
  obs::MetricsRegistry registry;
  std::vector<double> traced, serve_day, retrain_day;
  telemetry::WorkloadRepository last_repo;
  const auto start = Clock::now();
  while (traced.size() < 2 || Secs(start, Clock::now()) < measure_s) {
    LifecyclePass p = RunLifecyclePass(days, &registry, tr, &last_repo);
    traced.push_back(Sum(p.day_s));
    for (size_t d = 0; d < p.day_s.size(); ++d) {
      (p.retrained[d] ? retrain_day : serve_day).push_back(p.day_s[d]);
    }
    account(p);
  }
  // LifecycleDriver calls StatsBefore inside OnDayCompleted; its cost on this
  // workload's repository is measured by a separate pass.
  for (int d = 0; d < kLifeDays; ++d) {
    Span s(tr, "telemetry.stats_before");
    (void)last_repo.StatsBefore(d);
  }
  const double passes = static_cast<double>(traced.size());
  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto counter = [&](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Mean of a LifecycleDriver histogram; absent when nothing was observed.
  auto hist_mean = [&](const char* name, const char* metric) {
    auto it = snap.histograms.find(name);
    if (it != snap.histograms.end() && it->second.count > 0) {
      result->metrics[metric] = it->second.sum / static_cast<double>(it->second.count);
    }
  };
  auto& l = result->metrics;
  SetupLayerMetrics(*tr, result);
  l["lifecycle.serve_day_s"] = Median(serve_day);
  l["lifecycle.retrain_day_s"] = Median(retrain_day);
  l["lifecycle.retrains"] = counter("lifecycle.retrains") / passes;
  l["lifecycle.promotions"] = counter("lifecycle.promotions") / passes;
  // Training and backtests run inside OnDayCompleted, so their time per
  // call comes from the LifecycleDriver's own histograms.
  hist_mean("lifecycle.train.seconds", "lifecycle.train_s");
  hist_mean("lifecycle.train.seconds", "ml.train_s");
  hist_mean("lifecycle.backtest.seconds", "lifecycle.backtest_s");
  double rows = 0.0;
  int trainings = 0;
  for (int d = 0; d < kLifeDays; ++d) {
    if (!warm.retrained[static_cast<size_t>(d)]) continue;
    ++trainings;
    const int first = std::max(0, d - LifecycleBenchConfig(nullptr).policy.train_window_days + 1);
    for (int k = first; k <= d; ++k) {
      for (const auto& j : days[static_cast<size_t>(k)]) rows += static_cast<double>(j.graph.num_stages());
    }
  }
  l["ml.train_rows"] = rows / std::max(1, trainings);
  const double hits = counter("fleet.cache.hits") / passes;
  const double misses = counter("fleet.cache.misses") / passes;
  l["core.decision_cache.hits"] = hits;
  l["core.decision_cache.misses"] = misses;
  l["core.decision_cache.evictions"] = counter("fleet.cache.evictions") / passes;
  l["core.decision_cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  l["obs.tracing_overhead_frac"] = Median(traced) / Median(untraced) - 1.0;
}

// ---------------------------------------------------------------------------
// serve: an in-process daemon (one decide worker) on loopback, driven over
// one connection with the head of the cold-day fleet's measured day. The
// untraced run measures closed-loop passes: the same requests in the same
// order every pass. The traced run adds open-loop phases at fixed rates,
// from one sender thread and one receiver thread, and a rate ladder.

constexpr const char* kServeWorkload = "serve";
constexpr size_t kServeCases = 1000;  // requests per pass
constexpr int kServeWindow = 32;      // outstanding requests in a capacity pass
constexpr size_t kServeSeqCases = 250;  // requests of the traced one-at-a-time pass
constexpr double kServeRates[3] = {200.0, 500.0, 1000.0};  // low, mid, high
constexpr const char* kServeRateNames[3] = {"low", "mid", "high"};
constexpr double kServePhaseS = 2.0;  // seconds per fixed-rate phase
constexpr double kSloP99Ms = 20.0;

struct ServeCase {
  const workload::JobInstance* job;
  std::string request;   ///< serialized decide-request payload
  std::string frame;     ///< the encoded decide frame, id = case index + 1
  std::string expected;  ///< locally serialized decision payload
  double local_decide_s; ///< in-process DecideJobInto time
};

/// Whether a response frame is the decision the daemon owes for `c`: it
/// decodes, carries the bundle checksum, and is byte-equal to the locally
/// serialized decision.
bool GoodResponse(const serve::Frame& frame, const ServeCase& c, uint32_t checksum) {
  serve::DecideResponse response;
  return frame.type == serve::FrameType::kDecision &&
         serve::ParseDecideResponse(frame.payload, &response).ok() &&
         response.bundle_checksum == checksum && frame.payload == c.expected;
}

struct PassStats {
  double seconds = 0.0;
  std::vector<double> latency_s;  ///< send to response, per request
  std::vector<double> transport_s;  ///< latency minus in-process decide time
};

/// One closed-loop pass over the first `count` cases in order with `window`
/// requests outstanding: each response releases the next request. Every
/// request that is not answered with its good response is a failure.
PassStats RunClosedPass(serve::ServeClient* client, const std::vector<ServeCase>& cases,
                        size_t count, int window, uint32_t checksum, Tracer* tr,
                        RunResult* result) {
  PassStats ps;
  count = std::min(count, cases.size());
  std::vector<Clock::time_point> sent_at(count);
  size_t next = 0, answered = 0;
  bool alive = true;
  auto send = [&] {
    sent_at[next] = Clock::now();
    alive = client->SendRaw(cases[next].frame).ok();
    ++next;
  };
  const auto start = Clock::now();
  while (alive && next < count && next < static_cast<size_t>(window)) send();
  while (alive && answered < next) {
    auto frame = client->ReadFrame();
    const auto now = Clock::now();
    if (!frame.ok()) break;
    ++answered;
    const size_t k = static_cast<size_t>(frame->id - 1);
    bool good = false;
    if (k < next) {
      Span s(tr, "serve.client.decode");
      good = GoodResponse(*frame, cases[k], checksum);
    }
    if (good) {
      ps.latency_s.push_back(Secs(sent_at[k], now));
      ps.transport_s.push_back(ps.latency_s.back() - cases[k].local_decide_s);
    } else {
      result->Violation(StrFormat("request %zu: bad response", k));
    }
    if (next < count) send();
  }
  ps.seconds = Secs(start, Clock::now());
  result->attempted += static_cast<int64_t>(count);
  result->failed += static_cast<int64_t>(count - answered);
  return ps;
}

struct PhaseStats {
  std::vector<double> latency_s;  ///< from due time to response, per request
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  double late_max_s = 0.0;
  int64_t backlog_max = 0;
  bool backlog_grew = false;
  int64_t queue_depth_max = 0;
};

/// One open-loop phase: request k is due at start + k / rate, sent by a
/// sender thread and read back by this thread. Latency is measured from the
/// due time, so a stalled sender shows up in every request queued behind
/// it. After its last request the sender sends a ping; the receiver stops
/// once it has seen the pong and every response.
PhaseStats RunPhase(int port, const std::vector<ServeCase>& cases, uint32_t checksum,
                    double rate, double seconds, const obs::Gauge* queue_depth,
                    size_t* next_case) {
  PhaseStats ps;
  serve::ServeClient client;
  if (!client.Connect(port).ok()) {
    ps.failed = 1;
    return ps;
  }
  const int64_t total = static_cast<int64_t>(rate * seconds);
  std::vector<Clock::time_point> due;
  std::vector<size_t> case_of;
  std::mutex mu;  // guards due / case_of, which the sender grows
  std::atomic<int64_t> sent{0}, received{0};
  std::atomic<bool> abort{false};  // the receiver gave up; stop sending
  std::vector<double> backlog_samples;
  const auto start = Clock::now() + std::chrono::milliseconds(5);

  std::thread sender([&] {
    for (int64_t k = 0; k < total && !abort.load(); ++k) {
      const Clock::time_point when =
          start + std::chrono::nanoseconds(static_cast<int64_t>(1e9 * k / rate));
      std::this_thread::sleep_until(when);
      ps.late_max_s = std::max(ps.late_max_s, Secs(when, Clock::now()));
      const size_t c = (*next_case)++ % cases.size();
      {
        std::lock_guard<std::mutex> lock(mu);
        due.push_back(when);
        case_of.push_back(c);
      }
      serve::Frame frame;
      frame.type = serve::FrameType::kDecide;
      frame.id = static_cast<uint64_t>(k) + 1;
      frame.payload = cases[c].request;
      if (!client.SendRaw(serve::EncodeFrame(frame)).ok()) break;
      const int64_t now_sent = sent.fetch_add(1, std::memory_order_acq_rel) + 1;
      const int64_t backlog = now_sent - received.load(std::memory_order_acquire);
      ps.backlog_max = std::max(ps.backlog_max, backlog);
      backlog_samples.push_back(static_cast<double>(backlog));
    }
    serve::Frame ping;
    ping.type = serve::FrameType::kPing;
    ping.id = 0;
    (void)client.SendFrame(ping);
  });

  bool pong = false;
  while (!(pong && received.load() == sent.load())) {
    auto frame = client.ReadFrame();
    const auto now = Clock::now();
    if (!frame.ok()) break;  // the shortfall is counted below
    if (frame->id == 0) {
      pong = frame->type == serve::FrameType::kOk;
      if (!pong) break;
      continue;
    }
    const size_t k = static_cast<size_t>(frame->id - 1);
    Clock::time_point when;
    size_t c = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (k >= due.size()) break;
      when = due[k];
      c = case_of[k];
    }
    if (GoodResponse(*frame, cases[c], checksum)) {
      ++ps.ok;
      ps.latency_s.push_back(Secs(when, now));
    }
    if (queue_depth != nullptr) {
      ps.queue_depth_max =
          std::max(ps.queue_depth_max, static_cast<int64_t>(queue_depth->value()));
    }
    received.fetch_add(1, std::memory_order_acq_rel);
  }
  abort.store(true);
  sender.join();
  client.Close();
  ps.sent = total;
  ps.failed = ps.sent - ps.ok;  // unsent, unanswered, undecodable or wrong bytes
  // The backlog "grows" when the last quarter of the phase ran clearly
  // deeper than the first quarter.
  if (backlog_samples.size() >= 8) {
    const size_t q = backlog_samples.size() / 4;
    const double first =
        Sum({backlog_samples.begin(), backlog_samples.begin() + static_cast<long>(q)}) / q;
    const double last =
        Sum({backlog_samples.end() - static_cast<long>(q), backlog_samples.end()}) / q;
    ps.backlog_grew = last > 2.0 * first + 4.0;
  }
  return ps;
}

/// The `p` quantile of a registry histogram, interpolated linearly inside
/// the bucket that holds it.
double HistogramQuantile(const obs::MetricsSnapshot::HistogramView& h, double p) {
  const double target = p * static_cast<double>(h.count);
  double seen = 0.0;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    const double n = static_cast<double>(h.buckets[b]);
    if (n > 0 && seen + n >= target) {
      const double lo = b == 0 ? 0.0 : h.bounds[b - 1];
      const double hi = b < h.bounds.size() ? h.bounds[b] : h.bounds.back();
      return lo + (hi - lo) * (target - seen) / n;
    }
    seen += n;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

void RunServe(const Options& opt, Tracer* tr, RunResult* result) {
  ColdDayState st;
  std::shared_ptr<const core::PipelineBundle> bundle;
  std::vector<ServeCase> cases;
  const double setup_s = TimedSetup(tr, result, [&](Tracer* t) {
    const uint32_t inputs = SetupColdDay(opt.seed, t, &st);
    bundle = st.pipeline->bundle();
    // Requests, their frames and the expected answers are built here, so the
    // load generator only copies bytes.
    cases.clear();
    const core::DecisionEngine engine(bundle);
    core::DecideScratch scratch;
    const std::vector<workload::JobInstance>& day = st.repo.Day(kColdDay);
    for (size_t i = 0; i < std::min(kServeCases, day.size()); ++i) {
      const workload::JobInstance& job = day[i];
      std::optional<core::FleetDecision> decision;
      double decide_s = 0.0;
      if (job.graph.num_stages() >= 2) {
        core::FleetDecision d;
        const auto t0 = Clock::now();
        engine.DecideJobInto(job, bundle->stats(), core::DecideOptions{}, &scratch, &d).Check();
        decide_s = Secs(t0, Clock::now());
        decision = std::move(d);
      }
      serve::Frame frame;
      frame.type = serve::FrameType::kDecide;
      frame.id = i + 1;
      {
        Span s(t, "serve.client.encode");
        frame.payload = serve::SerializeDecideRequest(job, core::DecideOptions{});
      }
      std::string wire = serve::EncodeFrame(frame);
      cases.push_back({&job, std::move(frame.payload), std::move(wire),
                       StrFormat("decision %08x\n", bundle->checksum()) +
                           core::SerializeJobDecisionRecord(0, decision),
                       decide_s});
    }
    return Crc32(StrFormat("%08x %zu", inputs, cases.size()));
  });

  // Realized saving of the decisions the daemon serves, over every request.
  double saved = 0.0, total_temp = 0.0;
  {
    const core::DecisionEngine engine(bundle);
    for (const ServeCase& c : cases) {
      total_temp += c.job->TempByteSeconds();
      if (c.job->graph.num_stages() < 2) continue;
      auto d = engine.DecideJob(*c.job, bundle->stats(), {});
      d.status().Check();
      saved += core::RealizedTempSavingMultiCut(*c.job, d->cuts) * c.job->TempByteSeconds();
    }
  }
  const uint32_t checksum = bundle->checksum();

  // Warm-up (part of set-up): start the daemon, connect, and run a pass.
  const auto w0 = Clock::now();
  serve::ServeConfig scfg;
  scfg.num_workers = 1;
  auto server = std::make_unique<serve::ServeServer>(bundle, scfg);
  server->Start().Check();
  serve::ServeClient client;
  client.Connect(server->port()).Check();
  RunClosedPass(&client, cases, cases.size(), kServeWindow, checksum, nullptr, result);
  const double warmup_s = Secs(w0, Clock::now());

  // Measured: capacity passes. Latency is per request under that load. A
  // request sent with nothing outstanding waits on thread wake-ups, whose
  // tail follows the host's state (one-at-a-time p90 read either ~0.9 or
  // ~1.9 ms from run to run); with the daemon kept busy it does not.
  const double measure_s = tr ? opt.seconds / 2.0 : opt.seconds;
  std::vector<double> pass_s, latency;
  RepeatFor(measure_s, 3, [&] {
    const PassStats cap =
        RunClosedPass(&client, cases, cases.size(), kServeWindow, checksum, nullptr, result);
    pass_s.push_back(cap.seconds);
    latency.insert(latency.end(), cap.latency_s.begin(), cap.latency_s.end());
    return cap.seconds;
  });
  client.Close();
  server->Stop();
  auto& m = result->metrics;
  m["setup_s"] = setup_s + warmup_s;
  m["decisions_per_s"] = static_cast<double>(cases.size()) / Median(pass_s);
  m["latency_ms_p50"] = 1e3 * Median(latency);
  m["latency_ms_p90"] = 1e3 * Percentile(latency, 0.9);
  m["quality.temp_saving_frac"] = total_temp > 0 ? saved / total_temp : 0.0;
  std::fprintf(stderr,
               "serve: %zu cases, %zu capacity passes; capacity %.0f/s\n", cases.size(),
               pass_s.size(), m["decisions_per_s"]);
  if (tr == nullptr) return;

  // Traced: a daemon with a metrics registry; capacity passes with client
  // spans, a one-at-a-time pass for the transport time, the fixed open-loop
  // rates, then a geometric rate ladder for the saturation point.
  obs::MetricsRegistry registry;
  const obs::Gauge* depth_gauge = registry.gauge("serve.queue.depth");
  scfg.metrics = &registry;
  server = std::make_unique<serve::ServeServer>(bundle, scfg);
  server->Start().Check();
  client.Connect(server->port()).Check();
  std::vector<double> traced_pass_s;
  RepeatFor(opt.seconds / 4.0, 3, [&] {
    Span s(tr, "serve.capacity_pass");
    const PassStats p =
        RunClosedPass(&client, cases, cases.size(), kServeWindow, checksum, tr, result);
    traced_pass_s.push_back(p.seconds);
    return p.seconds;
  });
  const PassStats seq = RunClosedPass(&client, cases, kServeSeqCases, 1, checksum, nullptr, result);
  client.Close();
  auto& l = result->metrics;
  SetupLayerMetrics(*tr, result);
  l["ml.train_rows"] = st.train_rows;
  l["serve.client.encode_us"] = 1e6 * Mean(tr->Durations("serve.client.encode"));
  l["serve.client.decode_us"] = 1e6 * Mean(tr->Durations("serve.client.decode"));
  l["serve.transport_us_p50"] = 1e6 * Median(seq.transport_s);
  l["obs.tracing_overhead_frac"] = Median(traced_pass_s) / Median(pass_s) - 1.0;

  size_t next_case = 0;
  double late = 0.0;
  int64_t backlog = 0, depth = 0;
  auto account = [&](const PhaseStats& ps) {
    result->attempted += ps.sent;
    result->failed += ps.failed;
    late = std::max(late, ps.late_max_s);
    backlog = std::max(backlog, ps.backlog_max);
    depth = std::max(depth, ps.queue_depth_max);
  };
  for (int i = 0; i < 3; ++i) {
    Span s(tr, "serve.phase");
    const PhaseStats ps = RunPhase(server->port(), cases, checksum, kServeRates[i],
                                   kServePhaseS, depth_gauge, &next_case);
    account(ps);
    l[std::string("serve.latency_p50_ms.") + kServeRateNames[i]] = 1e3 * Median(ps.latency_s);
    l[std::string("serve.latency_p99_ms.") + kServeRateNames[i]] =
        1e3 * Percentile(ps.latency_s, 0.99);
  }
  // A rate counts only if every request succeeds, p99 is within the SLO and
  // the backlog does not grow.
  double max_ok = 0.0;
  for (double rate = 250.0; rate <= 16000.0; rate *= std::sqrt(2.0)) {
    Span s(tr, "serve.ladder_step");
    const PhaseStats ps =
        RunPhase(server->port(), cases, checksum, rate, 1.0, depth_gauge, &next_case);
    account(ps);
    if (ps.failed != 0 || ps.backlog_grew ||
        1e3 * Percentile(ps.latency_s, 0.99) > kSloP99Ms) {
      break;
    }
    max_ok = rate;
  }
  server->Stop();
  l["serve.max_rps_within_slo"] = max_ok;
  l["serve.generator_late_ms_max"] = 1e3 * late;
  l["serve.backlog_max"] = static_cast<double>(backlog);
  l["serve.queue_depth_max"] = static_cast<double>(depth);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto bs = snap.histograms.find("serve.batch.size");
  if (bs != snap.histograms.end() && bs->second.count > 0) {
    l["serve.batch_size_mean"] = bs->second.sum / static_cast<double>(bs->second.count);
  }
  auto rq = snap.histograms.find("serve.request.seconds");
  if (rq != snap.histograms.end() && rq->second.count > 0) {
    l["serve.request_ms_p99"] = 1e3 * HistogramQuantile(rq->second, 0.99);
  }
}

// ---------------------------------------------------------------------------
// exact-oracle: the fleet's jobs of 3..8 stages, each solved by the sweep
// heuristic and by the exact IP (one cut; two cuts on the smaller ones),
// under their true costs.

constexpr int kOracleTemplates = 2000;
constexpr double kOracleInstancesPerDay = 3.0;
constexpr size_t kOracleMinStages = 3;
constexpr size_t kOracleMaxStages = 8;
constexpr size_t kOracleTwoCutMaxStages = 5;
constexpr double kOracleTimeLimitS = 30.0;
constexpr uint64_t kOracleWarmupSeed = 0x5eed;
constexpr int kOracleWarmupSolves = 10;
/// Cases of the traced pass: a fixed set, so per-solve figures do not depend
/// on how many cases a run gets through.
constexpr size_t kOracleTracedCases = 100;

double RelTol(double scale) { return 1e-4 * std::max(1.0, std::abs(scale)); }

void RunOracle(const Options& opt, Tracer* tr, RunResult* result) {
  std::vector<testing::JobCase> cases;
  std::vector<double> temp;  // each case's true temp byte-seconds
  const double setup_s = TimedSetup(tr, result, [&](Tracer* t) {
    workload::WorkloadGenerator gen = FleetGenerator(kOracleTemplates, kOracleInstancesPerDay);
    std::vector<workload::JobInstance> jobs;
    {
      Span s(t, "workload.generate");
      jobs = gen.GenerateDay(FirstDay(opt.seed));
    }
    const core::DecisionEngine truth(
        std::make_shared<const core::PipelineBundle>(core::PipelineConfig{}));
    // Round-robin over templates in a fixed shuffled order (every template's
    // first instance, then every second instance, ...), so however many
    // cases a run gets through, it covers the same templates.
    std::map<int, int> seen;
    std::vector<std::pair<std::pair<int, uint64_t>, size_t>> keys;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const size_t n = jobs[i].graph.num_stages();
      if (n < kOracleMinStages || n > kOracleMaxStages) continue;
      const uint64_t shuffled =
          static_cast<uint64_t>(jobs[i].template_id) * 0x9e3779b97f4a7c15ULL;
      keys.push_back({{seen[jobs[i].template_id]++, shuffled}, i});
    }
    std::sort(keys.begin(), keys.end());
    cases.clear();
    temp.clear();
    for (const auto& key : keys) {
      const workload::JobInstance& job = jobs[key.second];
      auto costs = truth.BuildCosts(job, core::CostSource::kTruth);
      costs.status().Check();
      cases.push_back({job.graph, std::move(*costs)});
      temp.push_back(job.TempByteSeconds());
    }
    return DigestJobs(jobs, static_cast<uint32_t>(cases.size()));
  });
  core::IpOptions ip1;
  ip1.milp.time_limit_seconds = kOracleTimeLimitS;
  core::IpOptions ip2 = ip1;
  ip2.num_cuts = 2;

  struct Totals {
    std::vector<double> ip1_s, ip2_s, sweep_s;
    double saved = 0.0, total = 0.0;
    int64_t nodes = 0, pivots = 0, nonoptimal = 0;
  };
  auto solve_case = [&](const testing::JobCase& c, double c_temp, Tracer* t, Totals* tot,
                        RunResult* res) {
    res->attempted += 1;
    const auto s0 = Clock::now();
    auto sweep = [&] {
      Span s(t, "core.checkpoint.sweep");
      return core::OptimizeTempStorage(c.graph, c.costs);
    }();
    const auto s1 = Clock::now();
    auto one = [&] {
      Span s(t, "solver.ip1");
      return core::SolveTempStorageIp(c.graph, c.costs, ip1);
    }();
    const auto s2 = Clock::now();
    if (!sweep.ok() || !one.ok()) {
      ++res->failed;
      return;
    }
    tot->sweep_s.push_back(Secs(s0, s1));
    tot->ip1_s.push_back(Secs(s1, s2));
    tot->nodes += one->nodes;
    tot->pivots += one->pivots;
    if (!one->optimal) ++tot->nonoptimal;
    res->Check(one->optimal, "1-cut IP hit its limit before proving optimality");
    res->Check(one->objective + RelTol(one->objective) >= sweep->objective,
               StrFormat("1-cut IP %.6e below sweep %.6e", one->objective,
                         sweep->objective));
    tot->saved += one->objective;
    tot->total += c_temp;
    if (c.graph.num_stages() > kOracleTwoCutMaxStages) return;
    res->attempted += 1;
    const auto t0 = Clock::now();
    auto two = [&] {
      Span s(t, "solver.ip2");
      return core::SolveTempStorageIp(c.graph, c.costs, ip2);
    }();
    if (!two.ok()) {
      ++res->failed;
      return;
    }
    tot->ip2_s.push_back(Secs(t0, Clock::now()));
    tot->nodes += two->nodes;
    tot->pivots += two->pivots;
    if (!two->optimal) ++tot->nonoptimal;
    res->Check(two->optimal, "2-cut IP hit its limit before proving optimality");
    res->Check(two->objective + RelTol(one->objective) >= one->objective,
               StrFormat("2-cut IP %.6e below 1-cut IP %.6e", two->objective,
                         one->objective));
  };
  // Warm-up (part of set-up): one fixed case, the same for every seed so
  // set-up time does not depend on which DAGs the seed drew.
  const auto w0 = Clock::now();
  {
    Rng rng(kOracleWarmupSeed);
    testing::GraphGenOptions g;
    g.min_stages = g.max_stages = static_cast<int>(kOracleTwoCutMaxStages);
    const testing::JobCase warm_case =
        testing::RandomJobCase(g, testing::CostGenOptions{}, &rng);
    Totals warm;
    RunResult warm_result;
    for (int i = 0; i < kOracleWarmupSolves; ++i) {
      solve_case(warm_case, 1.0, nullptr, &warm, &warm_result);
    }
    for (const std::string& v : warm_result.violations) result->Violation(v);
  }
  const double warmup_s = Secs(w0, Clock::now());
  Totals tot;
  size_t next = 0;
  const double measure_s = tr ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<double> per_case = RepeatFor(measure_s, 20, [&] {
    const auto t0 = Clock::now();
    const size_t i = next++ % cases.size();
    solve_case(cases[i], temp[i], nullptr, &tot, result);
    return Secs(t0, Clock::now());
  });
  auto& m = result->metrics;
  m["setup_s"] = setup_s + warmup_s;
  m["decisions_per_s"] = static_cast<double>(tot.ip1_s.size()) / Sum(tot.ip1_s);
  m["latency_ms_p50"] = 1e3 * Median(tot.ip1_s);
  m["latency_ms_p90"] = 1e3 * Percentile(tot.ip1_s, 0.9);
  m["quality.temp_saving_frac"] = tot.total > 0 ? tot.saved / tot.total : 0.0;
  std::fprintf(stderr, "exact-oracle: %zu cases solved (%zu one-cut, %zu two-cut), %lld nodes\n",
               per_case.size(), tot.ip1_s.size(), tot.ip2_s.size(),
               static_cast<long long>(tot.nodes));
  if (tr == nullptr) return;

  // Traced pass over a fixed set of cases, each solved untraced then traced,
  // so the tracing overhead compares the same cases at the same moment.
  Totals utot, ttot;
  for (size_t i = 0; i < std::min(kOracleTracedCases, cases.size()); ++i) {
    solve_case(cases[i], temp[i], nullptr, &utot, result);
    solve_case(cases[i], temp[i], tr, &ttot, result);
  }
  const double solves = static_cast<double>(ttot.ip1_s.size() + ttot.ip2_s.size());
  const double solve_s = Sum(ttot.ip1_s) + Sum(ttot.ip2_s);
  auto& l = result->metrics;
  SetupLayerMetrics(*tr, result);
  l["solver.ip1_ms"] = 1e3 * Mean(ttot.ip1_s);
  l["solver.ip2_ms"] = 1e3 * Mean(ttot.ip2_s);
  l["solver.nodes"] = static_cast<double>(ttot.nodes) / solves;
  l["solver.pivots"] = static_cast<double>(ttot.pivots) / solves;
  l["solver.nodes_per_s"] = ttot.nodes / solve_s;
  l["solver.pivots_per_s"] = ttot.pivots / solve_s;
  l["solver.nonoptimal"] = static_cast<double>(ttot.nonoptimal);
  l["solver.ip_vs_sweep_ratio"] = Median(ttot.ip1_s) / Median(ttot.sweep_s);
  l["obs.tracing_overhead_frac"] = Sum(ttot.ip1_s) / Sum(utot.ip1_s) - 1.0;
}

// ---------------------------------------------------------------------------

/// CPU brand string via cpuid (no file outside the checkout is read).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t a = model.find_first_not_of(' ');
  return a == std::string::npos ? "unknown" : model.substr(a, model.find_last_not_of(' ') - a + 1);
#else
  return "unknown";
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int Main(int argc, char** argv) {
  ArgParser args("perfbench", "Phoebe repo benchmark: one workload, one JSON result line.");
  args.AddString("workload", "", "cold-day | recurring-lifecycle | serve | exact-oracle")
      .AddInt("seed", 1, "input seed; the same seed gives the same inputs")
      .AddInt("seconds", 10, "measured seconds")
      .AddInt("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
      .AddString("out-dir", "", "directory for the trace and result files (optional)")
      .AddString("source-digest", "unknown", "digest of the benchmarked sources");
  Status parsed = args.Parse(argc, argv, 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(), args.Help().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fprintf(stderr, "%s", args.Help().c_str());
    return 2;
  }
  Options opt;
  opt.workload = args.GetString("workload");
  opt.seed = args.GetInt("seed");
  opt.seconds = args.GetInt("seconds");
  const int trace = args.GetInt("trace");
  opt.out_dir = args.GetString("out-dir");
  opt.source_digest = args.GetString("source-digest");
  if (opt.seconds < 1 || opt.seconds > 600 || (trace != 0 && trace != 1) || opt.seed < 0) {
    std::fprintf(stderr, "--seconds must be in [1, 600], --trace 0 or 1, --seed >= 0\n");
    return 2;
  }
  opt.trace = trace == 1;

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();
  RunResult result;
  unsigned workload_bit = 0;
  if (opt.workload == "cold-day") {
    workload_bit = kCold;
    RunColdDay(opt, tracer.get(), &result);
  } else if (opt.workload == "recurring-lifecycle") {
    workload_bit = kLife;
    RunLifecycle(opt, tracer.get(), &result);
  } else if (opt.workload == kServeWorkload) {
    workload_bit = kServe;
    RunServe(opt, tracer.get(), &result);
  } else if (opt.workload == "exact-oracle") {
    workload_bit = kOracle;
    RunOracle(opt, tracer.get(), &result);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n%s", opt.workload.c_str(),
                 args.Help().c_str());
    return 2;
  }
  result.metrics["peak_rss_mb"] = PeakRssMb();

  const std::string fingerprint = StrFormat(
      "{\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"source_digest\":\"%s\"}",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, JsonEscape(opt.source_digest).c_str());
  std::string metrics;
  bool missing = false;
  // A metric the workload must measure and did not fails the run; one of a
  // layer the workload never enters reads 0.
  auto emit = [&](const char* name, const char* unit, bool required) {
    auto it = result.metrics.find(name);
    const double v = it == result.metrics.end() ? 0.0 : it->second;
    if ((it == result.metrics.end() && required) || !std::isfinite(v)) {
      std::fprintf(stderr, "metric %s was not measured\n", name);
      missing = true;
      return;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += StrFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name, v, unit);
  };
  if (opt.trace) {
    for (const LayerDef& d : kPerLayer) emit(d.name, d.unit, (d.set_by & workload_bit) != 0);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d.name, d.unit, true);
  }
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "correctness: %s\n", v.c_str());
  }
  // Everything measured, including what the line of this mode does not
  // carry.
  std::string details;
  for (const auto& [name, value] : result.metrics) {
    details += StrFormat("%s\"%s\":%.17g", details.empty() ? "" : ",", name.c_str(),
                         std::isfinite(value) ? value : 0.0);
  }
  std::fprintf(stderr, "measured: {%s}\n", details.c_str());
  const bool correct = result.failed == 0 && !missing && result.attempted > 0;
  const std::string line = StrFormat(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fprintf(stderr, "host: %s\nerror_frac: %.6g\n", fingerprint.c_str(),
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<int64_t>(1, result.attempted)));

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    const std::string stem = StrFormat("%s/%s-seed%d-trace%d", opt.out_dir.c_str(),
                                       opt.workload.c_str(), opt.seed, trace);
    std::ofstream f(stem + ".result.json");
    f << "{\"host\":" << fingerprint << ",\"workload\":\"" << opt.workload
      << "\",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
      << ",\"result\":" << line << ",\"measured\":{" << details << "}}\n";
    if (tracer) tracer->Write(stem + ".spans.jsonl").Check();
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace phoebe::perfbench

int main(int argc, char** argv) { return phoebe::perfbench::Main(argc, argv); }
