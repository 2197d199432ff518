// Byte-identity gate for the day-batched decide path: DecideJobsInto must
// give every job exactly the status and decision that per-job DecideJobInto
// gives it — for all five cost sources, temp storage with one and two cuts,
// recovery, jobs with fewer than two stages, and stages priced by the
// general fallback model — and the fleet day loop built on it must
// reproduce, byte for byte, a replay of per-job decisions at 1 and 4
// threads with the template cache off and on. Runs under TSan in
// tools/run_checks.sh (the "DayBatch" leg): the 4-thread fleet cases decide
// one contiguous chunk per worker.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 2;
constexpr int kTestDay = kTrainDays;

constexpr CostSource kAllSources[] = {
    CostSource::kTruth, CostSource::kOptimizerEstimates, CostSource::kConstant,
    CostSource::kMlSimulator, CostSource::kMlStacked};

/// The decide contexts under test: temp storage with 1 and 2 cuts, recovery.
std::vector<DecideOptions> AllOptions(CostSource source) {
  return {DecideOptions{Objective::kTempStorage, source, 1},
          DecideOptions{Objective::kTempStorage, source, 2},
          DecideOptions{Objective::kRecovery, source, 1}};
}

std::string Describe(const DecideOptions& o) {
  return std::string(CostSourceToken(o.source)) + " objective=" +
         std::to_string(static_cast<int>(o.objective)) +
         " cuts=" + std::to_string(o.num_cuts);
}

void ExpectSameDecision(const FleetDecision& want, const FleetDecision& got) {
  EXPECT_EQ(want.combined.objective, got.combined.objective);
  EXPECT_EQ(want.combined.global_bytes, got.combined.global_bytes);
  EXPECT_EQ(want.combined.cut.before_cut, got.combined.cut.before_cut);
  ASSERT_EQ(want.cuts.size(), got.cuts.size());
  for (size_t c = 0; c < want.cuts.size(); ++c) {
    EXPECT_EQ(want.cuts[c].before_cut, got.cuts[c].before_cut);
  }
}

class DayBatchDecideTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 10;
    wcfg.seed = 4242;
    workload::WorkloadGenerator gen(wcfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d <= kTestDay + 1; ++d) repo_->AddDay(d, gen.GenerateDay(d)).Check();
    // A high per-type threshold leaves the rarer stage types to the general
    // model, so both kinds of serving model price stages of the test day.
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 12;
    cfg.size_predictor.gbdt.num_trees = 12;
    cfg.ttl.gbdt.num_trees = 12;
    cfg.exec_predictor.min_samples_per_type = 150;
    cfg.size_predictor.min_samples_per_type = 150;
    cfg.ttl.min_samples_per_type = 150;
    pipeline_ = new PhoebePipeline(cfg);
    pipeline_->Train(*repo_, 0, kTrainDays).Check();
    // Same, but the size predictor sees the stage type as a feature, so the
    // two predictors need separate day matrices.
    cfg.size_predictor.features.stage_type_id = true;
    split_pipeline_ = new PhoebePipeline(cfg);
    split_pipeline_->Train(*repo_, 0, kTrainDays).Check();
  }
  static void TearDownTestSuite() {
    delete split_pipeline_;
    delete pipeline_;
    delete repo_;
  }

  /// The test day plus a zero-stage and a one-stage job: the day path must
  /// price what DecideJobInto prices, whatever the fleet would skip.
  static std::vector<workload::JobInstance> DayWithSmallJobs() {
    std::vector<workload::JobInstance> jobs = repo_->Day(kTestDay);
    workload::JobInstance single;
    for (const workload::JobInstance& job : jobs) {
      if (job.graph.num_stages() == 1) single = job;
    }
    if (single.graph.num_stages() != 1) {
      // The generator drew no single-stage job: keep stage 0 of the first.
      const workload::JobInstance& src = jobs.front();
      single.job_id = src.job_id + 1000000;
      single.template_id = src.template_id;
      single.job_name = src.job_name;
      single.norm_input_name = src.norm_input_name;
      single.graph.AddStage(src.graph.stage(0));
      single.est.push_back(src.est[0]);
      single.truth.push_back(src.truth[0]);
    }
    jobs.insert(jobs.begin() + static_cast<long>(jobs.size() / 2), single);
    workload::JobInstance empty = single;
    empty.graph = dag::JobGraph();
    empty.est.clear();
    empty.truth.clear();
    jobs.push_back(empty);
    return jobs;
  }

  /// Every job through DecideJobsInto (one call, or `chunk`-sized calls on
  /// one warm arena) against per-job DecideJobInto.
  static void ExpectDayMatchesPerJob(const DecisionEngine& engine,
                                     const std::vector<workload::JobInstance>& jobs,
                                     const DecideOptions& options, size_t chunk) {
    const telemetry::HistoricStats stats = repo_->StatsBefore(kTestDay);
    std::vector<const workload::JobInstance*> batch;
    for (const workload::JobInstance& job : jobs) batch.push_back(&job);
    std::vector<JobDecision> slots(jobs.size());
    DayDecideScratch day;
    for (size_t b = 0; b < batch.size(); b += chunk) {
      const size_t n = std::min(chunk, batch.size() - b);
      engine.DecideJobsInto(std::span(batch).subspan(b, n), stats, options, &day,
                            std::span(slots).subspan(b, n));
    }
    DecideScratch scratch;
    for (size_t k = 0; k < jobs.size(); ++k) {
      SCOPED_TRACE("job " + std::to_string(k));
      FleetDecision want;
      const Status st = engine.DecideJobInto(jobs[k], stats, options, &scratch, &want);
      ASSERT_EQ(st.ToString(), slots[k].status.ToString());
      if (st.ok()) ExpectSameDecision(want, slots[k].decision);
    }
  }

  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
  static PhoebePipeline* split_pipeline_;
};

telemetry::WorkloadRepository* DayBatchDecideTest::repo_ = nullptr;
PhoebePipeline* DayBatchDecideTest::pipeline_ = nullptr;
PhoebePipeline* DayBatchDecideTest::split_pipeline_ = nullptr;

TEST_F(DayBatchDecideTest, MatchesPerJobForEverySourceAndObjective) {
  const std::vector<workload::JobInstance> jobs = DayWithSmallJobs();
  for (CostSource source : kAllSources) {
    for (const DecideOptions& options : AllOptions(source)) {
      SCOPED_TRACE(Describe(options));
      ExpectDayMatchesPerJob(pipeline_->engine(), jobs, options, jobs.size());
    }
  }
}

TEST_F(DayBatchDecideTest, ChunkSizeAndArenaReuseAreByteNeutral) {
  const std::vector<workload::JobInstance> jobs = DayWithSmallJobs();
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    ExpectDayMatchesPerJob(pipeline_->engine(), jobs,
                           DecideOptions{Objective::kTempStorage, CostSource::kMlStacked, 2},
                           chunk);
  }
}

TEST_F(DayBatchDecideTest, SeparateSizeFeaturesMatchPerJob) {
  ASSERT_FALSE(split_pipeline_->bundle()->size_predictor().featurizer().config() ==
               split_pipeline_->bundle()->exec_predictor().featurizer().config());
  const std::vector<workload::JobInstance> jobs = DayWithSmallJobs();
  for (CostSource source : {CostSource::kMlSimulator, CostSource::kMlStacked}) {
    SCOPED_TRACE(CostSourceToken(source));
    ExpectDayMatchesPerJob(split_pipeline_->engine(), jobs,
                           DecideOptions{Objective::kTempStorage, source, 1}, jobs.size());
  }
}

TEST_F(DayBatchDecideTest, ScalarInferenceMatchesPerJob) {
  const std::vector<workload::JobInstance> jobs = DayWithSmallJobs();
  pipeline_->set_batch_inference(false);
  ExpectDayMatchesPerJob(pipeline_->engine(), jobs,
                         DecideOptions{Objective::kTempStorage, CostSource::kMlStacked, 1},
                         jobs.size());
  pipeline_->set_batch_inference(true);
}

TEST_F(DayBatchDecideTest, BothPerTypeAndGeneralModelsServeTheDay) {
  // Guards the coverage the equality tests rely on: the day has stages
  // priced by per-type models and stages priced by the general fallback.
  const PipelineBundle& bundle = *pipeline_->bundle();
  const telemetry::HistoricStats stats = repo_->StatsBefore(kTestDay);
  const std::vector<workload::JobInstance> jobs = DayWithSmallJobs();
  std::vector<const workload::JobInstance*> batch;
  for (const workload::JobInstance& job : jobs) batch.push_back(&job);
  std::vector<JobDecision> slots(jobs.size());
  DayDecideScratch day;
  pipeline_->engine().DecideJobsInto(batch, stats, DecideOptions{}, &day, slots);
  const size_t type_models = bundle.exec_predictor().num_type_models();
  ASSERT_GT(type_models, 0u);
  ASSERT_EQ(day.exec.bucket.size(), type_models + 2);
  const size_t general_rows = day.exec.bucket[type_models + 1] - day.exec.bucket[type_models];
  EXPECT_GT(general_rows, 0u) << "no stage of the day fell back to the general model";
  EXPECT_GT(day.exec.bucket[type_models], 0u) << "no stage used a per-type model";
}

TEST_F(DayBatchDecideTest, TelemetryCountsModelCallsAndTheirRows) {
  const std::vector<workload::JobInstance>& jobs = repo_->Day(kTestDay);
  const telemetry::HistoricStats stats = repo_->StatsBefore(kTestDay);
  size_t rows = 0;
  std::vector<const workload::JobInstance*> batch;
  for (const workload::JobInstance& job : jobs) {
    rows += job.graph.num_stages();
    batch.push_back(&job);
  }
  const DecideOptions options{Objective::kTempStorage, CostSource::kMlStacked, 1};

  // Per-job path: every row is scored once by exec, size and TTL, and each
  // model call is one histogram observation.
  obs::MetricsRegistry per_job_reg;
  DecisionEngine per_job(pipeline_->bundle(), &per_job_reg);
  DecideScratch scratch;
  FleetDecision d;
  for (const workload::JobInstance& job : jobs) {
    per_job.DecideJobInto(job, stats, options, &scratch, &d).Check();
  }
  // Day path: the same rows in far fewer, far larger calls.
  obs::MetricsRegistry day_reg;
  DecisionEngine day_engine(pipeline_->bundle(), &day_reg);
  DayDecideScratch day;
  std::vector<JobDecision> slots(jobs.size());
  day_engine.DecideJobsInto(batch, stats, options, &day, slots);

  const obs::MetricsSnapshot a = per_job_reg.Snapshot();
  const obs::MetricsSnapshot b = day_reg.Snapshot();
  const std::string hist = "engine.ml_stacked.inference.batch_stages";
  const std::string calls = "engine.ml_stacked.inference.batches";
  for (const obs::MetricsSnapshot* snap : {&a, &b}) {
    EXPECT_EQ(snap->histograms.at(hist).sum, 3.0 * static_cast<double>(rows));
    EXPECT_EQ(snap->histograms.at(hist).count, snap->counters.at(calls));
    EXPECT_EQ(snap->histograms.at("engine.ml_stacked.decide.seconds").count,
              static_cast<int64_t>(jobs.size()));
  }
  // Per job, a model serves each stage type the job has, so calls outnumber
  // jobs; the day makes at most one call per serving model and family.
  EXPECT_GT(a.counters.at(calls), static_cast<int64_t>(jobs.size()));
  EXPECT_LE(b.counters.at(calls), static_cast<int64_t>(3 * (workload::kNumStageTypes + 1)));
  EXPECT_LT(b.counters.at(calls), a.counters.at(calls));
}

// --- Fleet level: the day loop on the batched path vs a replay of per-job
// decisions, through the same cache and admission code. ----------------------

/// Report JSON of two consecutive days on one arm deciding with the day
/// path; adds the days' template-cache hits to `*cache_hits`.
std::string RunDays(const DecisionEngine& engine, const FleetConfig& cfg,
                    const telemetry::WorkloadRepository& repo, int64_t* cache_hits) {
  DecisionArm arm(&engine, cfg);
  std::string out;
  for (int d = kTestDay; d <= kTestDay + 1; ++d) {
    const telemetry::HistoricStats stats = repo.StatsBefore(d);
    auto report = arm.RunDay(DayContext(d, repo.Day(d), stats));
    report.status().Check();
    *cache_hits += report->cache_hits;
    out += FleetDayReportJson(*report, d) + "\n";
  }
  return out;
}

/// The same two days, every eligible job decided by per-job DecideJobInto
/// and fed through ReplayDay.
std::string ReplayPerJob(const DecisionEngine& engine, const FleetConfig& cfg,
                         const telemetry::WorkloadRepository& repo) {
  DecisionArm arm(&engine, cfg);
  std::string out;
  DecideScratch scratch;
  for (int d = kTestDay; d <= kTestDay + 1; ++d) {
    const telemetry::HistoricStats stats = repo.StatsBefore(d);
    const std::vector<workload::JobInstance>& jobs = repo.Day(d);
    FleetDayDecisions decisions;
    decisions.decisions.resize(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].graph.num_stages() < 2) continue;
      FleetDecision decision;
      engine.DecideJobInto(jobs[i], stats, cfg.decide_options(), &scratch, &decision)
          .Check();
      decisions.decisions[i].emplace(std::move(decision));
    }
    auto report = arm.ReplayDay(DayContext(d, jobs, stats), decisions);
    report.status().Check();
    out += FleetDayReportJson(*report, d) + "\n";
  }
  return out;
}

TEST_F(DayBatchDecideTest, FleetDaysMatchPerJobReplayAcrossThreadsAndCache) {
  const DecisionEngine& engine = pipeline_->engine();
  for (CostSource source : kAllSources) {
    for (const DecideOptions& options : AllOptions(source)) {
      // Cache off, exact keys, and approximate keys (which make followers:
      // the leader-only decide phase then skips jobs mid-day).
      for (int cache : {0, 1, 2}) {
        FleetConfig cfg;
        cfg.objective = options.objective;
        cfg.source = options.source;
        cfg.num_cuts = options.num_cuts;
        cfg.template_cache.enabled = cache > 0;
        cfg.template_cache.capacity = 16;
        cfg.template_cache.quantize_bps = cache == 2 ? 5000 : 0;
        SCOPED_TRACE(Describe(options) + " cache mode " + std::to_string(cache));
        const std::string want = ReplayPerJob(engine, cfg, *repo_);
        for (int threads : {1, 4}) {
          SCOPED_TRACE("threads " + std::to_string(threads));
          cfg.num_threads = threads;
          int64_t hits = 0;
          EXPECT_EQ(want, RunDays(engine, cfg, *repo_, &hits));
          if (cache == 2) {
            EXPECT_GT(hits, 0) << "approximate keys made no followers";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace phoebe::core
