// Tests for the fleet driver: unbudgeted vs budgeted runs, admission
// accounting, calibration requirements, and cut alignment.
#include <gtest/gtest.h>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

class FleetFixture : public ::testing::Test {
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
  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetFixture::gen_ = nullptr;
telemetry::WorkloadRepository* FleetFixture::repo_ = nullptr;
PhoebePipeline* FleetFixture::pipeline_ = nullptr;

TEST_F(FleetFixture, UnbudgetedAdmitsEveryCut) {
  DecisionArm driver(&pipeline_->engine(), FleetConfig{});
  auto report = driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcomes.size(), repo_->Day(5).size());
  EXPECT_EQ(report->jobs_admitted, report->jobs_with_cut);
  EXPECT_GT(report->jobs_admitted, 0);
  EXPECT_GT(report->SavingFraction(), 0.2);
  EXPECT_LE(report->SavingFraction(), 1.0);
  EXPECT_GT(report->storage_used_bytes, 0.0);
}

TEST_F(FleetFixture, BudgetRequiresCalibration) {
  FleetConfig cfg;
  cfg.storage_budget_bytes = 1e12;
  DecisionArm driver(&pipeline_->engine(), cfg);
  EXPECT_FALSE(driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5))).ok());
}

TEST_F(FleetFixture, BudgetIsRespectedAndSelective) {
  // Unbudgeted baseline for comparison.
  DecisionArm open_driver(&pipeline_->engine(), FleetConfig{});
  auto open = open_driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(open.ok());

  FleetConfig cfg;
  cfg.storage_budget_bytes = 0.3 * open->storage_used_bytes;
  DecisionArm driver(&pipeline_->engine(), cfg);
  ASSERT_TRUE(
      driver.Calibrate(DayContext(-1, repo_->Day(4), repo_->StatsBefore(4))).ok());
  auto report = driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(report.ok());

  EXPECT_LE(report->storage_used_bytes, cfg.storage_budget_bytes + 1e-6);
  EXPECT_LT(report->jobs_admitted, report->jobs_with_cut);
  EXPECT_GT(report->jobs_admitted, 0);
  EXPECT_GT(report->knapsack_threshold, 0.0);
  // The selective run must be more storage-efficient than the open run.
  double eff_open = open->realized_saving_byte_seconds / open->storage_used_bytes;
  double eff_budget =
      report->realized_saving_byte_seconds / report->storage_used_bytes;
  EXPECT_GT(eff_budget, eff_open);
}

TEST_F(FleetFixture, AdmittedCutsAlignWithJobs) {
  DecisionArm driver(&pipeline_->engine(), FleetConfig{});
  const auto& jobs = repo_->Day(5);
  auto report = driver.RunDay(DayContext(5, jobs, repo_->StatsBefore(5)));
  ASSERT_TRUE(report.ok());
  auto cuts = report->AdmittedCuts();
  ASSERT_EQ(cuts.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(report->outcomes[i].job_id, jobs[i].job_id);
    if (!cuts[i].empty()) {
      EXPECT_EQ(cuts[i].before_cut.size(), jobs[i].graph.num_stages());
      EXPECT_TRUE(report->outcomes[i].admitted);
    }
  }
}

TEST_F(FleetFixture, RecoveryObjectiveRuns) {
  FleetConfig cfg;
  cfg.objective = Objective::kRecovery;
  DecisionArm driver(&pipeline_->engine(), cfg);
  auto report = driver.RunDay(DayContext(5, repo_->Day(5), repo_->StatsBefore(5)));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->jobs_with_cut, 0);
}

TEST_F(FleetFixture, CalibrationRejectsEmptyHistory) {
  DecisionArm driver(&pipeline_->engine(), FleetConfig{});
  EXPECT_FALSE(driver.Calibrate(DayContext(-1, {}, repo_->StatsBefore(4))).ok());
}

}  // namespace
}  // namespace phoebe::core
