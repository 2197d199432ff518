// Determinism of the two-phase fleet driver: RunDay must produce
// byte-identical FleetDayReports for any FleetConfig::num_threads, because
// all floating-point accumulation and knapsack admission happens in the
// serial replay phase. Every comparison below is exact (==, no tolerance):
// the contract is bit-equality, not approximate agreement. Run under the
// PHOEBE_SANITIZE=thread config this suite doubles as the data-race check
// on the const-after-Train pipeline invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/threadpool.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

TEST(ThreadPoolTest, ResolveMapsSpecialValues) {
  EXPECT_EQ(ThreadPool::Resolve(1), 1);
  EXPECT_EQ(ThreadPool::Resolve(4), 4);
  EXPECT_GE(ThreadPool::Resolve(0), 1);  // hardware concurrency, at least 1
  EXPECT_EQ(ThreadPool::Resolve(-3), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(997);
    pool.ParallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTiny) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> tiny{0};
  pool.ParallelFor(2, [&](size_t) { tiny.fetch_add(1); });
  EXPECT_EQ(tiny.load(), 2);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 5050u);
  }
}

class FleetParallelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 20;
    cfg.seed = 55;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 6; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    pipeline_ = new PhoebePipeline();
    pipeline_->Train(*repo_, 0, 4).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
  }

  /// Exact equality of every report field — the byte-identical contract.
  static void ExpectIdentical(const FleetDayReport& a, const FleetDayReport& b) {
    EXPECT_EQ(a.jobs_considered, b.jobs_considered);
    EXPECT_EQ(a.jobs_with_cut, b.jobs_with_cut);
    EXPECT_EQ(a.jobs_admitted, b.jobs_admitted);
    EXPECT_EQ(a.storage_used_bytes, b.storage_used_bytes);
    EXPECT_EQ(a.total_temp_byte_seconds, b.total_temp_byte_seconds);
    EXPECT_EQ(a.realized_saving_byte_seconds, b.realized_saving_byte_seconds);
    EXPECT_EQ(a.knapsack_threshold, b.knapsack_threshold);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const FleetJobOutcome& x = a.outcomes[i];
      const FleetJobOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_id, y.job_id);
      EXPECT_EQ(x.admitted, y.admitted);
      EXPECT_EQ(x.global_bytes, y.global_bytes);
      EXPECT_EQ(x.predicted_value, y.predicted_value);
      EXPECT_EQ(x.realized_value, y.realized_value);
      EXPECT_EQ(x.cut.before_cut, y.cut.before_cut);
      ASSERT_EQ(x.cuts.size(), y.cuts.size());
      for (size_t c = 0; c < x.cuts.size(); ++c) {
        EXPECT_EQ(x.cuts[c].before_cut, y.cuts[c].before_cut);
      }
    }
  }

  /// Run the same day at num_threads 1/2/8 and demand identical reports.
  static void CheckThreadInvariance(FleetConfig cfg, bool calibrate) {
    std::vector<FleetDayReport> reports;
    for (int threads : {1, 2, 8}) {
      cfg.num_threads = threads;
      DecisionArm driver(&pipeline_->engine(), cfg);
      if (calibrate) {
        ASSERT_TRUE(
            driver.Calibrate(DayContext(-1, repo_->Day(4), repo_->StatsBefore(4))).ok());
      }
      auto report = driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      reports.push_back(*std::move(report));
    }
    ExpectIdentical(reports[0], reports[1]);
    ExpectIdentical(reports[0], reports[2]);
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetParallelFixture::gen_ = nullptr;
telemetry::WorkloadRepository* FleetParallelFixture::repo_ = nullptr;
PhoebePipeline* FleetParallelFixture::pipeline_ = nullptr;

TEST_F(FleetParallelFixture, UnbudgetedDayIsThreadCountInvariant) {
  CheckThreadInvariance(FleetConfig{}, /*calibrate=*/false);
}

TEST_F(FleetParallelFixture, BudgetedDayIsThreadCountInvariant) {
  // A finite budget makes admission order-sensitive: any reordering of the
  // knapsack offers would show up immediately as a different admitted set.
  FleetConfig open_cfg;
  DecisionArm open_driver(&pipeline_->engine(), open_cfg);
  auto open = open_driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(open.ok());

  FleetConfig cfg;
  cfg.storage_budget_bytes = 0.3 * open->storage_used_bytes;
  CheckThreadInvariance(cfg, /*calibrate=*/true);
}

TEST_F(FleetParallelFixture, MultiCutDayIsThreadCountInvariant) {
  FleetConfig cfg;
  cfg.num_cuts = 3;
  CheckThreadInvariance(cfg, /*calibrate=*/false);
}

TEST_F(FleetParallelFixture, RecoveryObjectiveIsThreadCountInvariant) {
  FleetConfig cfg;
  cfg.objective = Objective::kRecovery;
  CheckThreadInvariance(cfg, /*calibrate=*/false);
}

TEST_F(FleetParallelFixture, HardwareConcurrencyModeMatchesSerial) {
  FleetConfig serial_cfg;  // num_threads = 1
  DecisionArm serial(&pipeline_->engine(), serial_cfg);
  auto a = serial.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(a.ok());

  FleetConfig auto_cfg;
  auto_cfg.num_threads = 0;  // hardware concurrency
  DecisionArm parallel(&pipeline_->engine(), auto_cfg);
  auto b = parallel.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(b.ok());
  ExpectIdentical(*a, *b);
}

TEST_F(FleetParallelFixture, MultiCutOutcomesAreNestedAndAligned) {
  FleetConfig cfg;
  cfg.num_cuts = 3;
  cfg.num_threads = 2;
  DecisionArm driver(&pipeline_->engine(), cfg);
  const auto& jobs = repo_->Day(5);
  auto report = driver.RunDay(DayContext(5, jobs, repo_->StatsBefore(5)));
  ASSERT_TRUE(report.ok());
  int multi = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const FleetJobOutcome& out = report->outcomes[i];
    if (out.cuts.empty()) continue;
    if (out.cuts.size() > 1) ++multi;
    // `cut` is the outermost entry; cuts are innermost-first and nested.
    EXPECT_EQ(out.cut.before_cut, out.cuts.back().before_cut);
    for (size_t c = 0; c + 1 < out.cuts.size(); ++c) {
      ASSERT_EQ(out.cuts[c].before_cut.size(), out.cuts[c + 1].before_cut.size());
      for (size_t u = 0; u < out.cuts[c].before_cut.size(); ++u) {
        // Inner cut ⊆ outer cut.
        EXPECT_LE(out.cuts[c].before_cut[u], out.cuts[c + 1].before_cut[u]);
      }
    }
  }
  EXPECT_GT(multi, 0) << "expected some job to benefit from multiple cuts";
}

}  // namespace
}  // namespace phoebe::core
