// Metrics passivity: attaching a MetricsRegistry to the engine + fleet
// driver must not change a single byte of any FleetDayReport, for any
// thread count and either template-cache mode. The comparison is the
// rendered FleetDayReportJson string — the same artifact the CLI writes —
// so this is the end-to-end byte-identical contract with telemetry on.
// The suite also sanity-checks that the flight recorder actually recorded:
// decide counts equal the report's, cache traffic matches, and per-worker
// counts add up.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

class FleetMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 16;
    cfg.seed = 91;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 5; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new PhoebePipeline();
    pipeline_->Train(*repo_, 0, 3).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
  }

  /// Render the two test days through one driver as the CLI would.
  static std::string RunDays(const DecisionEngine* engine, FleetConfig cfg) {
    DecisionArm driver(engine, cfg);
    std::string out;
    for (int day : {3, 4}) {
      auto report =
          driver.RunDay(DayContext(day, repo_->Day(day), repo_->StatsBefore(day)));
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      out += FleetDayReportJson(*report, day);
      out += "\n";
    }
    return out;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetMetricsTest::gen_ = nullptr;
telemetry::WorkloadRepository* FleetMetricsTest::repo_ = nullptr;
PhoebePipeline* FleetMetricsTest::pipeline_ = nullptr;

TEST_F(FleetMetricsTest, ReportsAreByteIdenticalWithMetricsOn) {
  for (bool cache : {false, true}) {
    FleetConfig cfg;
    if (cache) {
      cfg.template_cache.enabled = true;
      cfg.template_cache.capacity = 256;
      cfg.template_cache.quantize_bps = 0;  // exact mode: byte-neutral
    }
    for (int threads : {1, 4}) {
      cfg.num_threads = threads;

      cfg.metrics = nullptr;
      std::string off = RunDays(&pipeline_->engine(), cfg);

      obs::MetricsRegistry reg;
      DecisionEngine engine(pipeline_->bundle(), &reg);
      cfg.metrics = &reg;
      std::string on = RunDays(&engine, cfg);

      EXPECT_EQ(off, on) << "cache=" << cache << " threads=" << threads;
    }
  }
}

TEST_F(FleetMetricsTest, RecordedCountsMatchTheReport) {
  obs::MetricsRegistry reg;
  DecisionEngine engine(pipeline_->bundle(), &reg);
  FleetConfig cfg;
  cfg.num_threads = 4;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 4;  // tiny: force evictions
  cfg.metrics = &reg;
  DecisionArm driver(&engine, cfg);

  int64_t jobs_total = 0, hits = 0, misses = 0, evictions = 0;
  for (int day : {3, 4}) {
    auto report =
        driver.RunDay(DayContext(day, repo_->Day(day), repo_->StatsBefore(day)));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    jobs_total += report->jobs_considered;
    hits += report->cache_hits;
    misses += report->cache_misses;
    evictions += report->cache_evictions;
  }
  ASSERT_GT(jobs_total, 0);

  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("fleet.cache.hits"), hits);
  EXPECT_EQ(snap.counters.at("fleet.cache.misses"), misses);
  EXPECT_EQ(snap.counters.at("fleet.cache.evictions"), evictions);
  EXPECT_GT(evictions, 0) << "capacity 4 over two days should evict";

  // Jobs decided = cache misses (hits skip the decide path entirely).
  EXPECT_EQ(snap.counters.at("fleet.decide.jobs"), misses);

  // Per-worker counters cover exactly the decided jobs.
  int64_t per_worker = 0;
  for (int w = 0; w < ThreadPool::Resolve(cfg.num_threads); ++w) {
    per_worker += snap.counters.at("fleet.worker." + std::to_string(w) + ".jobs");
  }
  EXPECT_EQ(per_worker, misses);

  // One engine decide span per decided job; two day spans; phase timers ran.
  EXPECT_EQ(snap.histograms.at("engine.ml_stacked.decide.seconds").count, misses);
  EXPECT_EQ(snap.histograms.at("fleet.day.seconds").count, 2);
  EXPECT_EQ(snap.histograms.at("fleet.phase.decide.seconds").count, 2);
  EXPECT_EQ(snap.histograms.at("fleet.phase.admission.seconds").count, 2);
  EXPECT_EQ(snap.histograms.at("fleet.cache.lookup.seconds").count, jobs_total);
  EXPECT_GT(snap.histograms.at("engine.ml_stacked.inference.seconds").count, 0);
  EXPECT_GT(snap.counters.at("engine.ml_stacked.inference.batches"), 0);
}

TEST_F(FleetMetricsTest, InvalidConfigsAreRejectedAtEveryEntryPoint) {
  FleetConfig bad;
  bad.num_cuts = 0;
  EXPECT_FALSE(bad.Validate().ok());
  DecisionArm driver(&pipeline_->engine(), bad);
  const telemetry::HistoricStats stats = repo_->StatsBefore(3);
  const DayContext ctx(3, repo_->Day(3), stats);
  EXPECT_FALSE(driver.RunDay(ctx).ok());
  EXPECT_FALSE(driver.DecideDay(ctx).ok());
  EXPECT_FALSE(driver.Calibrate(ctx).ok());

  FleetConfig bad_cache;
  bad_cache.template_cache.enabled = true;
  bad_cache.template_cache.capacity = 0;
  EXPECT_FALSE(bad_cache.Validate().ok());

  TemplateCacheConfig bad_bps;
  bad_bps.enabled = true;
  bad_bps.capacity = 16;
  bad_bps.quantize_bps = -1;
  EXPECT_FALSE(bad_bps.Validate().ok());

  EXPECT_TRUE(FleetConfig{}.Validate().ok());
}

}  // namespace
}  // namespace phoebe::core
