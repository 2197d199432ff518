// Tests for the continuous-operation loop: the CRC-checked promotion log,
// the shadow byte-diff, and the LifecycleDriver's canary promotion gate —
// a candidate replaces the incumbent only when its trailing-window backtest
// cost strictly beats the incumbent's, and every verdict (either way) lands
// in the promotion log with both bundle checksums.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/bundle.h"
#include "core/fleet_shard.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/promotion_log.h"
#include "lifecycle/shadow.h"
#include "testing/scratch_dir.h"
#include "workload/generator.h"

namespace phoebe::lifecycle {
namespace {

workload::WorkloadGenerator MakeGen(uint64_t seed = 29) {
  workload::WorkloadConfig cfg;
  cfg.num_templates = 8;
  cfg.seed = seed;
  return workload::WorkloadGenerator(cfg);
}

/// Small trees keep driver tests fast; decisions stay fully deterministic.
core::PipelineConfig SmallPipeline() {
  core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
  cfg.exec_predictor.gbdt.num_trees = 8;
  cfg.size_predictor.gbdt.num_trees = 8;
  cfg.ttl.gbdt.num_trees = 8;
  return cfg;
}

/// A candidate architecture too weak to beat a trained incumbent: one
/// near-zero-learning-rate stump per model predicts essentially a constant.
core::PipelineConfig CrippledPipeline() {
  core::PipelineConfig cfg = SmallPipeline();
  for (core::PredictorConfig* p : {&cfg.exec_predictor, &cfg.size_predictor}) {
    p->gbdt.num_trees = 1;
    p->gbdt.num_leaves = 2;
    p->gbdt.learning_rate = 1e-4;
  }
  cfg.ttl.gbdt.num_trees = 1;
  cfg.ttl.gbdt.num_leaves = 2;
  cfg.ttl.gbdt.learning_rate = 1e-4;
  return cfg;
}

PromotionRecord SampleRecord() {
  PromotionRecord r;
  r.day = 7;
  r.window_first = 5;
  r.window_last = 7;
  r.incumbent_checksum = 0xdeadbeefu;
  r.candidate_checksum = 0x0badf00du;
  r.incumbent_cost = 0.52362222646233481;
  r.candidate_cost = 0.47490445974941753;
  r.reason = "accuracy";
  r.verdict = "promoted";
  return r;
}

// ---------- promotion log ----------

TEST(PromotionLogTest, RecordRoundTrip) {
  PromotionRecord r = SampleRecord();
  std::string line = SerializePromotionRecord(r);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  PromotionRecord parsed;
  ASSERT_TRUE(ParsePromotionRecord(line.substr(0, line.size() - 1), &parsed).ok());
  EXPECT_EQ(parsed.day, r.day);
  EXPECT_EQ(parsed.window_first, r.window_first);
  EXPECT_EQ(parsed.window_last, r.window_last);
  EXPECT_EQ(parsed.incumbent_checksum, r.incumbent_checksum);
  EXPECT_EQ(parsed.candidate_checksum, r.candidate_checksum);
  EXPECT_EQ(parsed.incumbent_cost, r.incumbent_cost);  // %.17g is exact
  EXPECT_EQ(parsed.candidate_cost, r.candidate_cost);
  EXPECT_EQ(parsed.reason, r.reason);
  EXPECT_EQ(parsed.verdict, r.verdict);
}

TEST(PromotionLogTest, LogRoundTripIncludingSentinelCosts) {
  PromotionRecord bootstrap;
  bootstrap.day = 1;
  bootstrap.window_first = 0;
  bootstrap.window_last = 1;
  bootstrap.candidate_checksum = 0x12345678u;
  bootstrap.candidate_cost = 0.25;
  bootstrap.reason = "bootstrap";
  bootstrap.verdict = "promoted";
  PromotionRecord rejected = SampleRecord();
  rejected.reason = "age";
  rejected.verdict = "rejected";

  std::string text = SerializePromotionLog({bootstrap, rejected});
  std::vector<PromotionRecord> parsed;
  ASSERT_TRUE(ParsePromotionLog(text, &parsed).ok());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].incumbent_checksum, 0u);
  EXPECT_EQ(parsed[0].incumbent_cost, -1.0);
  EXPECT_EQ(parsed[0].reason, "bootstrap");
  EXPECT_EQ(parsed[1].verdict, "rejected");
}

TEST(PromotionLogTest, EmptyLogIsJustTheHeader) {
  std::string text = SerializePromotionLog({});
  EXPECT_EQ(text, "phoebe_promotion_log 1\n");
  std::vector<PromotionRecord> parsed{SampleRecord()};
  ASSERT_TRUE(ParsePromotionLog(text, &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(PromotionLogTest, EveryBitFlipFailsTheCrc) {
  std::string line = SerializePromotionRecord(SampleRecord());
  line.pop_back();  // strip the newline
  int rejected = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    std::string corrupt = line;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    PromotionRecord out;
    if (!ParsePromotionRecord(corrupt, &out).ok()) ++rejected;
  }
  // A flip in the body fails the CRC; a flip in the CRC fails verification
  // or hex parsing. Nothing slips through.
  EXPECT_EQ(rejected, static_cast<int>(line.size()));
}

TEST(PromotionLogTest, RejectsMalformedRecords) {
  PromotionRecord out;
  EXPECT_FALSE(ParsePromotionRecord("", &out).ok());
  EXPECT_FALSE(ParsePromotionRecord("record day 1", &out).ok());

  // Semantically invalid fields re-serialized with a *correct* CRC must
  // still be rejected by field validation.
  auto with_crc = [](const std::string& body) {
    return body + StrFormat(" crc %08x", Crc32(body));
  };
  EXPECT_FALSE(ParsePromotionRecord(
                   with_crc("record day 3 window 1 2 incumbent 00000001 "
                            "candidate 00000002 incumbent_cost 0.5 "
                            "candidate_cost 0.4 reason lunar verdict promoted"),
                   &out)
                   .ok());
  EXPECT_FALSE(ParsePromotionRecord(
                   with_crc("record day 3 window 1 2 incumbent 00000001 "
                            "candidate 00000002 incumbent_cost 0.5 "
                            "candidate_cost 0.4 reason age verdict maybe"),
                   &out)
                   .ok());
  EXPECT_FALSE(ParsePromotionRecord(
                   with_crc("record day 3 window 4 5 incumbent 00000001 "
                            "candidate 00000002 incumbent_cost 0.5 "
                            "candidate_cost 0.4 reason age verdict promoted"),
                   &out)
                   .ok());
  EXPECT_FALSE(ParsePromotionRecord(
                   with_crc("record day 3 window 1 2 incumbent 00000001 "
                            "candidate 00000002 incumbent_cost 1.5 "
                            "candidate_cost 0.4 reason age verdict promoted"),
                   &out)
                   .ok());
}

TEST(PromotionLogTest, LogParseNamesTheBadLineAndLeavesOutputUntouched) {
  std::string text = SerializePromotionLog({SampleRecord()});
  text += "record day garbage\n";
  std::vector<PromotionRecord> out{SampleRecord(), SampleRecord()};
  Status st = ParsePromotionLog(text, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st.ToString();
  EXPECT_EQ(out.size(), 2u);  // untouched on error
}

TEST(PromotionLogTest, CrashTruncatedTailStillParsesRecordByRecord) {
  // Append-only contract: a writer crash mid-record leaves an intact prefix.
  // Whole-file parse rejects, but every complete line still parses — which
  // is how an operator (or the soak bench) recovers the audit trail.
  std::string full = SerializePromotionLog({SampleRecord(), SampleRecord()});
  std::string truncated = full.substr(0, full.size() - 10);
  std::vector<PromotionRecord> out;
  EXPECT_FALSE(ParsePromotionLog(truncated, &out).ok());

  std::vector<std::string> lines = Split(truncated, '\n');
  PromotionRecord r;
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(ParsePromotionRecord(lines[1], &r).ok());  // first record intact
}

// ---------- shadow diff ----------

core::FleetDayDecisions MakeDecisions() {
  core::FleetDayDecisions day;
  day.decisions.resize(3);  // slot 0 stays empty (ineligible job)
  core::FleetDecision d1;
  d1.combined.objective = 123.5;
  d1.combined.global_bytes = 42.0;
  d1.combined.cut.before_cut = {true, true, false, false};
  d1.cuts.push_back(d1.combined.cut);
  day.decisions[1].emplace(std::move(d1));
  core::FleetDecision d2;
  d2.combined.objective = 7.25;
  d2.combined.global_bytes = 8.0;
  d2.combined.cut.before_cut = {true, false};
  d2.cuts.push_back(d2.combined.cut);
  day.decisions[2].emplace(std::move(d2));
  return day;
}

TEST(ShadowDiffTest, IdenticalDecisionsProduceZeroDiff) {
  core::FleetDayDecisions a = MakeDecisions();
  core::FleetDayDecisions b = MakeDecisions();
  auto diff = DiffShadowDecisions(4, 0xaaaa0001u, 0xaaaa0001u, a, b);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff->jobs, 3);
  EXPECT_EQ(diff->differing, 0);
  EXPECT_TRUE(diff->differing_jobs.empty());
  EXPECT_EQ(diff->text,
            "phoebe_shadow_diff 1\n"
            "day 4 jobs 3 incumbent aaaa0001 candidate aaaa0001 differing 0\n"
            "job 0 same\n"
            "job 1 same\n"
            "job 2 same\n"
            "end_shadow_diff\n");
}

TEST(ShadowDiffTest, NamesDifferingJobsWithBothRecords) {
  core::FleetDayDecisions a = MakeDecisions();
  core::FleetDayDecisions b = MakeDecisions();
  b.decisions[2]->combined.objective = 7.75;  // one byte-level divergence
  auto diff = DiffShadowDecisions(4, 0xaaaa0001u, 0xbbbb0002u, a, b);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->differing, 1);
  ASSERT_EQ(diff->differing_jobs.size(), 1u);
  EXPECT_EQ(diff->differing_jobs[0], 2u);
  EXPECT_NE(diff->text.find("job 2 differs\n"), std::string::npos);
  // Both sides appear verbatim, "- "/"+ " prefixed, straight from the
  // shard-blob serializer.
  EXPECT_NE(diff->text.find("- " + Split(core::SerializeJobDecisionRecord(
                                             2, a.decisions[2]),
                                         '\n')[0]),
            std::string::npos);
  EXPECT_NE(diff->text.find("+ "), std::string::npos);
}

TEST(ShadowDiffTest, EmptyVsEngagedSlotDiffers) {
  core::FleetDayDecisions a = MakeDecisions();
  core::FleetDayDecisions b = MakeDecisions();
  b.decisions[1].reset();  // candidate declines to checkpoint
  auto diff = DiffShadowDecisions(0, 1u, 2u, a, b);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->differing, 1);
  EXPECT_EQ(diff->differing_jobs[0], 1u);
}

TEST(ShadowDiffTest, SlotCountMismatchIsAnError) {
  core::FleetDayDecisions a = MakeDecisions();
  core::FleetDayDecisions b = MakeDecisions();
  b.decisions.pop_back();
  EXPECT_FALSE(DiffShadowDecisions(0, 1u, 2u, a, b).ok());
}

// ---------- config validation ----------

TEST(RetrainPolicyTest, Validation) {
  EXPECT_TRUE(RetrainPolicy{}.Validate().ok());
  RetrainPolicy p;
  p.max_age_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_exec_r2 = 2.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(RetrainPolicyTest, ValidationRejectsBadWindows) {
  RetrainPolicy p;
  p.train_window_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_history_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_exec_r2 = -2.0;  // below the R^2 floor of -1
  EXPECT_FALSE(p.Validate().ok());
  // The boundary values are all legal.
  p = RetrainPolicy{};
  p.min_exec_r2 = -1.0;
  p.max_age_days = 1;
  p.train_window_days = 1;
  p.min_history_days = 1;
  EXPECT_TRUE(p.Validate().ok());
}

TEST(LifecycleConfigTest, Validation) {
  LifecycleConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());

  LifecycleConfig bad = cfg;
  bad.backtest_window_days = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.mtbf_seconds = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.policy.train_window_days = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.fleet.storage_budget_bytes = 1e12;  // finite budget unsupported
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.fleet.source = core::CostSource::kConstant;
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.retention_days = 2;  // shallower than the default 5-day train window
  EXPECT_FALSE(bad.Validate().ok());

  bad = cfg;
  bad.retention_days = std::max(bad.policy.train_window_days,
                                bad.backtest_window_days);
  EXPECT_TRUE(bad.Validate().ok());
}

// ---------- the driver ----------

LifecycleConfig SmallLoop() {
  LifecycleConfig cfg;
  cfg.pipeline = SmallPipeline();
  cfg.policy.min_history_days = 2;
  cfg.policy.train_window_days = 3;
  cfg.policy.max_age_days = 2;
  cfg.policy.min_exec_r2 = -1.0;  // age-only triggers: deterministic cadence
  cfg.backtest_window_days = 2;
  return cfg;
}

TEST(LifecycleDriverTest, BootstrapPromotesUnconditionally) {
  auto gen = MakeGen();
  telemetry::WorkloadRepository repo;
  LifecycleDriver driver(SmallLoop());
  EXPECT_FALSE(driver.deployed());

  repo.AddDay(0, gen.GenerateDay(0)).Check();
  auto r0 = driver.OnDayCompleted(&repo, 0);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_FALSE(r0->retrained);  // below min_history_days
  EXPECT_FALSE(r0->served);
  EXPECT_FALSE(driver.deployed());

  repo.AddDay(1, gen.GenerateDay(1)).Check();
  auto r1 = driver.OnDayCompleted(&repo, 1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->retrained);
  EXPECT_EQ(r1->reason, "bootstrap");
  EXPECT_EQ(r1->verdict, "promoted");
  EXPECT_TRUE(driver.deployed());
  EXPECT_EQ(driver.trained_on_day(), 1);

  ASSERT_EQ(driver.promotion_records().size(), 1u);
  const PromotionRecord& rec = driver.promotion_records()[0];
  EXPECT_EQ(rec.incumbent_checksum, 0u);  // there was no incumbent
  EXPECT_EQ(rec.incumbent_cost, -1.0);    // not measured
  EXPECT_EQ(rec.candidate_checksum, driver.incumbent_checksum());
  EXPECT_GE(rec.candidate_cost, 0.0);
  EXPECT_LE(rec.candidate_cost, 1.0);
}

// ---------- retrain triggers ----------

TEST(RetrainerTest, StaysUndeployedBelowMinHistory) {
  auto gen = MakeGen(16);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.policy.min_history_days = 4;
  LifecycleDriver driver(cfg);
  for (int d = 0; d < 3; ++d) {  // one day short of the bootstrap threshold
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    auto r = driver.OnDayCompleted(&repo, d);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->retrained);
    EXPECT_FALSE(r->served);
    EXPECT_EQ(r->reason, "");
    EXPECT_EQ(r->model_age_days, -1);
  }
  EXPECT_FALSE(driver.deployed());
  EXPECT_EQ(driver.trained_on_day(), -1);
  EXPECT_TRUE(driver.promotion_records().empty());
}

TEST(RetrainerTest, ReportedR2MatchesTheSharedSignal) {
  // The day report carries exactly the EvaluateExecR2 measurement of the
  // incumbent that served the day.
  auto gen = MakeGen(22);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.policy.min_history_days = 1;
  cfg.policy.max_age_days = 100;  // with min_exec_r2 = -1: no retrain after bootstrap
  LifecycleDriver driver(cfg);
  repo.AddDay(0, gen.GenerateDay(0)).Check();
  driver.OnDayCompleted(&repo, 0).status().Check();
  std::shared_ptr<const core::PipelineBundle> serving = driver.incumbent();
  repo.AddDay(1, gen.GenerateDay(1)).Check();
  auto r = driver.OnDayCompleted(&repo, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->served);
  EXPECT_FALSE(r->retrained);
  EXPECT_EQ(r->exec_r2, EvaluateExecR2(serving->exec_predictor(), repo, 1));
}

TEST(RetrainerTest, AgeTriggersRetrain) {
  auto gen = MakeGen(18);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();  // age-only triggers, max_age_days = 2
  cfg.policy.min_history_days = 1;
  cfg.policy.train_window_days = 2;
  LifecycleDriver driver(cfg);
  for (int d = 0; d <= 5; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    auto r = driver.OnDayCompleted(&repo, d);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const auto& h = driver.history();
  ASSERT_EQ(h.size(), 6u);
  EXPECT_EQ(h[0].reason, "bootstrap");
  // Day 2 is the first day the bootstrap model is 2 days old. After that the
  // age resets only on a promotion, so the trigger must fire exactly on the
  // days the serving model has reached max_age_days.
  EXPECT_FALSE(h[1].retrained);
  EXPECT_TRUE(h[2].retrained);
  int age_retrains = 0;
  for (size_t d = 1; d < h.size(); ++d) {
    EXPECT_EQ(h[d].retrained, h[d].model_age_days >= 2) << "day " << d;
    if (h[d].retrained) {
      EXPECT_EQ(h[d].reason, "age") << "day " << d;
      ++age_retrains;
    }
  }
  EXPECT_GE(age_retrains, 2);
}

TEST(RetrainerTest, AccuracyTriggersRetrain) {
  auto gen = MakeGen(19);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.policy.min_history_days = 1;
  cfg.policy.max_age_days = 100;   // never trigger on age
  cfg.policy.min_exec_r2 = 0.999;  // always trigger on accuracy
  LifecycleDriver driver(cfg);

  repo.AddDay(0, gen.GenerateDay(0)).Check();
  driver.OnDayCompleted(&repo, 0).status().Check();  // bootstrap
  repo.AddDay(1, gen.GenerateDay(1)).Check();
  auto r = driver.OnDayCompleted(&repo, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->retrained);
  EXPECT_EQ(r->reason, "accuracy");
  EXPECT_LT(r->exec_r2, 0.999);
  EXPECT_GT(r->exec_r2, 0.0);  // the model was not useless
}

TEST(RetrainerTest, HealthyModelIsKept) {
  auto gen = MakeGen(20);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.policy.max_age_days = 50;
  cfg.policy.min_exec_r2 = 0.2;  // easily met
  LifecycleDriver driver(cfg);

  for (int d = 0; d <= 3; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    driver.OnDayCompleted(&repo, d).status().Check();
  }
  const auto& h = driver.history();
  // One bootstrap, then no retraining.
  int retrains = 0;
  for (const auto& r : h) retrains += r.retrained ? 1 : 0;
  EXPECT_EQ(retrains, 1);
  EXPECT_GT(h.back().exec_r2, 0.2);
  EXPECT_GT(h.back().model_age_days, 0);
}

TEST(LifecycleDriverTest, PromotionRequiresStrictImprovement) {
  auto gen = MakeGen(31);
  telemetry::WorkloadRepository repo;
  LifecycleDriver driver(SmallLoop());
  for (int d = 0; d < 6; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    driver.OnDayCompleted(&repo, d).status().Check();
  }
  ASSERT_GE(driver.promotion_records().size(), 2u);
  for (const PromotionRecord& rec : driver.promotion_records()) {
    if (rec.reason == "bootstrap") {
      EXPECT_EQ(rec.verdict, "promoted");
      continue;
    }
    // The gate, exactly: promoted iff candidate cost strictly below
    // incumbent cost on the same trailing window.
    if (rec.candidate_cost < rec.incumbent_cost) {
      EXPECT_EQ(rec.verdict, "promoted") << "day " << rec.day;
    } else {
      EXPECT_EQ(rec.verdict, "rejected") << "day " << rec.day;
    }
    EXPECT_GE(rec.incumbent_cost, 0.0);
    EXPECT_LE(rec.incumbent_cost, 1.0);
  }
  // Whatever the last promotion was, the driver serves that bundle.
  for (auto it = driver.promotion_records().rbegin();
       it != driver.promotion_records().rend(); ++it) {
    if (it->verdict == "promoted") {
      EXPECT_EQ(driver.incumbent_checksum(), it->candidate_checksum);
      break;
    }
  }
}

TEST(LifecycleDriverTest, WorseCandidateIsRejectedAndIncumbentKeepsServing) {
  auto gen = MakeGen(33);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  LifecycleDriver driver(cfg);
  // Bootstrap a healthy incumbent first.
  for (int d = 0; d < 2; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    driver.OnDayCompleted(&repo, d).status().Check();
  }
  ASSERT_TRUE(driver.deployed());

  // From here on every candidate trains under a crippled architecture: the
  // canary gate must keep rejecting it and the incumbent must keep serving.
  LifecycleConfig canary = cfg;
  canary.candidate_pipeline = CrippledPipeline();
  canary.shadow = true;
  LifecycleDriver canary_driver(canary);
  telemetry::WorkloadRepository repo2;
  auto gen2 = MakeGen(33);
  uint32_t bootstrap_checksum = 0;
  for (int d = 0; d < 6; ++d) {
    repo2.AddDay(d, gen2.GenerateDay(d)).Check();
    auto r = canary_driver.OnDayCompleted(&repo2, d);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->reason == "bootstrap") bootstrap_checksum = r->candidate_checksum;
  }
  ASSERT_GE(canary_driver.promotion_records().size(), 2u);
  int rejections = 0;
  for (const PromotionRecord& rec : canary_driver.promotion_records()) {
    if (rec.reason == "bootstrap") continue;
    EXPECT_EQ(rec.verdict, "rejected") << "crippled candidate won on day "
                                       << rec.day;
    EXPECT_GE(rec.candidate_cost, rec.incumbent_cost);
    EXPECT_EQ(rec.incumbent_checksum, bootstrap_checksum);
    ++rejections;
  }
  EXPECT_GE(rejections, 1);
  // The incumbent never changed after bootstrap.
  EXPECT_EQ(canary_driver.incumbent_checksum(), bootstrap_checksum);
  // Shadow diffs ran for the rejected candidates and found divergence.
  ASSERT_FALSE(canary_driver.shadow_diffs().empty());
  EXPECT_GT(canary_driver.shadow_diffs()[0].differing, 0);
}

TEST(LifecycleDriverTest, RejectsOutOfOrderAndMissingDays) {
  auto gen = MakeGen(35);
  telemetry::WorkloadRepository repo;
  repo.AddDay(0, gen.GenerateDay(0)).Check();
  repo.AddDay(1, gen.GenerateDay(1)).Check();
  LifecycleDriver driver(SmallLoop());
  driver.OnDayCompleted(&repo, 1).status().Check();
  EXPECT_FALSE(driver.OnDayCompleted(&repo, 0).ok());
  EXPECT_FALSE(driver.OnDayCompleted(&repo, 1).ok());
  EXPECT_TRUE(driver.OnDayCompleted(&repo, 5).status().IsNotFound());
}

TEST(LifecycleDriverTest, InvalidConfigFailsFastOnFirstDay) {
  LifecycleConfig cfg = SmallLoop();
  cfg.backtest_window_days = 0;
  LifecycleDriver driver(cfg);
  auto gen = MakeGen();
  telemetry::WorkloadRepository repo;
  repo.AddDay(0, gen.GenerateDay(0)).Check();
  EXPECT_FALSE(driver.OnDayCompleted(&repo, 0).ok());
}

TEST(LifecycleDriverTest, WritesParseableArtifactsAndServableBundle) {
  const phoebe::testing::ScratchDir scratch;
  const std::string dir = scratch.File("lifecycle_art");

  auto gen = MakeGen(37);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.shadow = true;
  cfg.out_dir = dir;
  LifecycleDriver driver(cfg);
  const int kDays = 6;
  for (int d = 0; d < kDays; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    driver.OnDayCompleted(&repo, d).status().Check();
  }

  // The on-disk promotion log parses and matches the in-memory records.
  std::ifstream log(dir + "/promotion.log", std::ios::binary);
  ASSERT_TRUE(log.good());
  std::ostringstream log_text;
  log_text << log.rdbuf();
  std::vector<PromotionRecord> parsed;
  ASSERT_TRUE(ParsePromotionLog(log_text.str(), &parsed).ok());
  EXPECT_EQ(log_text.str(), SerializePromotionLog(driver.promotion_records()));

  // One day-report JSON line per day.
  std::ifstream reports(dir + "/day_reports.jsonl", std::ios::binary);
  ASSERT_TRUE(reports.good());
  int lines = 0;
  for (std::string line; std::getline(reports, line);) ++lines;
  EXPECT_EQ(lines, kDays);

  // current.phoebe is the serving artifact: it loads and IS the incumbent.
  auto bundle = core::PipelineBundle::LoadFromFile(dir + "/current.phoebe");
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ((*bundle)->checksum(), driver.incumbent_checksum());

  // Every promotion also left an immutable versioned bundle; every
  // non-bootstrap retrain with shadow on left a diff artifact.
  for (const PromotionRecord& rec : driver.promotion_records()) {
    if (rec.verdict == "promoted") {
      EXPECT_TRUE(std::filesystem::exists(
          dir + "/" + StrFormat("bundle_day_%03d_%08x.phoebe", rec.day,
                                rec.candidate_checksum)));
    }
    if (rec.reason != "bootstrap") {
      EXPECT_TRUE(std::filesystem::exists(
          dir + "/" + StrFormat("shadow_day_%03d.diff", rec.day)));
    }
  }
}

TEST(LifecycleDriverTest, RetentionEvictsOnlyOutgrownDays) {
  auto gen = MakeGen(39);
  telemetry::WorkloadRepository repo;
  LifecycleConfig cfg = SmallLoop();
  cfg.retention_days = 3;  // == train window; covers backtest window too
  LifecycleDriver driver(cfg);
  for (int d = 0; d < 7; ++d) {
    repo.AddDay(d, gen.GenerateDay(d)).Check();
    driver.OnDayCompleted(&repo, d).status().Check();
    EXPECT_LE(repo.Days().size(), 3u);
  }
  // The surviving window is exactly the trailing retention_days.
  EXPECT_EQ(repo.Days(), (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(driver.deployed());
}

}  // namespace
}  // namespace phoebe::lifecycle
