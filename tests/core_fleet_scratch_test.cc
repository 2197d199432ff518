// Determinism gate for the per-worker scratch arenas: reusing a warm
// DecideScratch across jobs, days, and threads must be byte-neutral. The
// fleet driver's report JSON must be identical for 1 vs 4 worker threads
// under every cache mode, and an arena shared across a whole day of
// DecideJobInto calls must reproduce the wrapper path (fresh scratch per
// call) bit-for-bit. Runs under TSan in tools/run_checks.sh (the
// "FleetScratch" leg) so cross-thread arena bugs surface as races, not
// flaky diffs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 3;
constexpr int kTestDays = 2;

class FleetScratchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 12;
    wcfg.seed = 1031;
    workload::WorkloadGenerator gen(wcfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < kTrainDays + kTestDays; ++d) {
      repo_->AddDay(d, gen.GenerateDay(d)).Check();
    }
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 16;
    cfg.size_predictor.gbdt.num_trees = 16;
    cfg.ttl.gbdt.num_trees = 16;
    pipeline_ = new PhoebePipeline(cfg);
    pipeline_->Train(*repo_, 0, kTrainDays).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
  }

  /// Report JSON of both test days run back-to-back on ONE driver — so the
  /// second day decides through arenas already warmed (and possibly
  /// oversized) by the first.
  static std::string TwoDayReports(const FleetConfig& cfg) {
    DecisionArm driver(&pipeline_->engine(), cfg);
    std::string out;
    for (int d = 0; d < kTestDays; ++d) {
      auto report =
          driver.RunDay(DayContext(kTrainDays + d, repo_->Day(kTrainDays + d),
                                   repo_->StatsBefore(kTrainDays + d)));
      report.status().Check();
      out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  static FleetConfig CacheConfig(int mode) {
    FleetConfig cfg;
    if (mode >= 1) {  // 0 = off, 1 = exact, 2 = approximate
      cfg.template_cache.enabled = true;
      cfg.template_cache.capacity = 64;
      cfg.template_cache.quantize_bps = mode == 2 ? 5000 : 0;
    }
    return cfg;
  }

  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

telemetry::WorkloadRepository* FleetScratchDeterminismTest::repo_ = nullptr;
PhoebePipeline* FleetScratchDeterminismTest::pipeline_ = nullptr;

TEST_F(FleetScratchDeterminismTest, ReportsByteIdenticalAcrossThreadsAndCache) {
  for (int mode : {0, 1, 2}) {
    SCOPED_TRACE(mode);
    FleetConfig cfg = CacheConfig(mode);
    cfg.num_threads = 1;
    const std::string reference = TwoDayReports(cfg);
    ASSERT_FALSE(reference.empty());
    cfg.num_threads = 4;
    EXPECT_EQ(reference, TwoDayReports(cfg));
    // Repeat at 4 threads: work stealing may hand a job to a differently
    // warmed arena each run; the bytes must not care.
    EXPECT_EQ(reference, TwoDayReports(cfg));
  }
}

TEST_F(FleetScratchDeterminismTest, SharedArenaMatchesWrapperPathBitwise) {
  // One arena reused across every job of the day (in job order, mixing wide
  // and narrow graphs, with and without cuts) vs the Result-returning
  // wrapper that builds fresh scratch per call.
  const DecisionEngine& engine = pipeline_->engine();
  auto stats = repo_->StatsBefore(kTrainDays);
  for (int num_cuts : {1, 3}) {
    SCOPED_TRACE(num_cuts);
    DecideOptions options;
    options.num_cuts = num_cuts;
    DecideScratch scratch;
    FleetDecision reused;
    for (const auto& job : repo_->Day(kTrainDays)) {
      if (job.graph.num_stages() < 2) continue;
      auto fresh = engine.DecideJob(job, stats, options);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      Status st = engine.DecideJobInto(job, stats, options, &scratch, &reused);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(fresh->combined.objective, reused.combined.objective);
      EXPECT_EQ(fresh->combined.global_bytes, reused.combined.global_bytes);
      EXPECT_EQ(fresh->combined.cut.before_cut, reused.combined.cut.before_cut);
      ASSERT_EQ(fresh->cuts.size(), reused.cuts.size());
      for (size_t c = 0; c < fresh->cuts.size(); ++c) {
        EXPECT_EQ(fresh->cuts[c].before_cut, reused.cuts[c].before_cut);
      }
    }
  }
}

}  // namespace
}  // namespace phoebe::core
