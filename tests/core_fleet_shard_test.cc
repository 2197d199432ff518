// Tests for multi-process fleet sharding: DecideDay/ReplayDay must reproduce
// RunDay byte-for-byte, shard blobs must round-trip through their text form,
// merging N in {1,2,4} shards must yield a FleetDayReport stream
// byte-identical to the unsharded run — with the template cache off and on —
// and the merge must refuse blobs decided under any other arm set.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 3;
constexpr int kFleetDays = 4;  ///< test days kTrainDays..kTrainDays+3

class FleetShardFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 16;
    cfg.seed = 77;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < kTrainDays + kFleetDays; ++d) {
      repo_->AddDay(d, gen_->GenerateDay(d)).Check();
    }
    PipelineConfig cfg2 = PhoebePipeline::DefaultConfig();
    cfg2.exec_predictor.gbdt.num_trees = 20;
    cfg2.size_predictor.gbdt.num_trees = 20;
    cfg2.ttl.gbdt.num_trees = 20;
    pipeline_ = new PhoebePipeline(cfg2);
    pipeline_->Train(*repo_, 0, kTrainDays).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
    delete gen_;
  }

  static const std::vector<workload::JobInstance>& FleetDay(int d) {
    return repo_->Day(kTrainDays + d);
  }
  static telemetry::HistoricStats FleetStats(int d) {
    return repo_->StatsBefore(kTrainDays + d);
  }
  /// Fleet day `d`'s context; `stats` must outlive every use of it.
  static DayContext Context(int d, const telemetry::HistoricStats& stats) {
    return DayContext(d, FleetDay(d), stats);
  }
  static void CalibrateOnLastTrainDay(DecisionArm& arm) {
    const telemetry::HistoricStats stats = repo_->StatsBefore(kTrainDays - 1);
    arm.Calibrate(DayContext(-1, repo_->Day(kTrainDays - 1), stats)).Check();
  }
  static uint32_t Checksum() { return pipeline_->bundle()->checksum(); }

  /// Decide-phase output of fleet day `d` under `cfg` (fresh arm).
  static FleetDayDecisions Decide(const FleetConfig& cfg, int d) {
    DecisionArm arm(&pipeline_->engine(), cfg);
    const telemetry::HistoricStats stats = FleetStats(d);
    auto decisions = arm.DecideDay(Context(d, stats));
    decisions.status().Check();
    return std::move(*decisions);
  }

  /// Decide + shard-side replay of fleet day `d` under `cfg` (fresh arm):
  /// the arm section an unbudgeted, cache-off shard writes.
  static ShardArmDay DecideAndReplay(const FleetConfig& cfg, int d) {
    DecisionArm arm(&pipeline_->engine(), cfg);
    const telemetry::HistoricStats stats = FleetStats(d);
    ShardArmDay out{Decide(cfg, d), std::nullopt};
    auto report = arm.ReplayDay(Context(d, stats), out.decisions);
    report.status().Check();
    out.report = std::move(*report);
    return out;
  }

  /// Shard `index` of `count` of a run whose arm k is decided under
  /// `arm_cfgs[k]` (every arm serves this fixture's bundle), serialized and
  /// parsed back — i.e. the file form a shard process hands to the merge.
  static FleetShardBlob ShardBlob(int index, int count,
                                  const std::vector<FleetConfig>& arm_cfgs,
                                  bool with_reports = false) {
    FleetShardBlob blob;
    blob.header = FleetShardHeader{index, count, kFleetDays,
                                   std::vector<uint32_t>(arm_cfgs.size(), Checksum())};
    for (int d = 0; d < kFleetDays; ++d) {
      if (!ShardOwnsDay(d, index, count)) continue;
      for (const FleetConfig& cfg : arm_cfgs) {
        blob.days[d].push_back(with_reports ? DecideAndReplay(cfg, d)
                                            : ShardArmDay{Decide(cfg, d), std::nullopt});
      }
    }
    auto text = SerializeFleetShard(blob);
    text.status().Check();
    auto parsed = ParseFleetShard(*text);
    parsed.status().Check();
    return std::move(*parsed);
  }

  /// The canonical report stream of a sequential run under `cfg`.
  static std::string SequentialReports(const FleetConfig& cfg, bool budgeted) {
    DecisionArm arm(&pipeline_->engine(), cfg);
    if (budgeted) CalibrateOnLastTrainDay(arm);
    std::string out;
    for (int d = 0; d < kFleetDays; ++d) {
      const telemetry::HistoricStats stats = FleetStats(d);
      auto report = arm.RunDay(Context(d, stats));
      report.status().Check();
      out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  /// The report stream of an N-shard run: per-shard DecideDay -> serialize ->
  /// parse -> combine -> ReplayDay, i.e. the full blob protocol in-process.
  static std::string ShardedReports(const FleetConfig& cfg, bool budgeted,
                                    int shard_count) {
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      blobs.push_back(ShardBlob(s, shard_count, {cfg}));
    }
    auto merged = CombineFleetShards(blobs, {Checksum()});
    merged.status().Check();

    DecisionArm merge_arm(&pipeline_->engine(), cfg);
    if (budgeted) CalibrateOnLastTrainDay(merge_arm);
    std::string out;
    for (int d = 0; d < kFleetDays; ++d) {
      const telemetry::HistoricStats stats = FleetStats(d);
      auto report = merge_arm.ReplayDay(Context(d, stats), merged->at(d)[0].decisions);
      report.status().Check();
      out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  /// The report stream of an N-shard run where each shard replays its days
  /// locally (embedded reports) and the merge is report concatenation — no
  /// ReplayDay at merge time. Only valid unbudgeted + cache-off.
  static std::string ShardSideReports(const FleetConfig& cfg, int shard_count) {
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      blobs.push_back(ShardBlob(s, shard_count, {cfg}, /*with_reports=*/true));
    }
    auto merged = CombineFleetShards(blobs, {Checksum()});
    merged.status().Check();
    std::string out;
    for (int d = 0; d < kFleetDays; ++d) {
      const std::optional<FleetDayReport>& report = merged->at(d)[0].report;
      EXPECT_TRUE(report.has_value()) << "day " << d;
      if (report.has_value()) out += FleetDayReportJson(*report, d) + "\n";
    }
    return out;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

workload::WorkloadGenerator* FleetShardFixture::gen_ = nullptr;
telemetry::WorkloadRepository* FleetShardFixture::repo_ = nullptr;
PhoebePipeline* FleetShardFixture::pipeline_ = nullptr;

TEST_F(FleetShardFixture, ReplayDayReproducesRunDay) {
  FleetConfig cfg;
  DecisionArm a(&pipeline_->engine(), cfg);
  DecisionArm b(&pipeline_->engine(), cfg);
  const telemetry::HistoricStats stats = FleetStats(0);
  auto decisions = a.DecideDay(Context(0, stats));
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  auto run = a.RunDay(Context(0, stats));
  auto replay = b.ReplayDay(Context(0, stats), *decisions);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(FleetDayReportJson(*run, 0), FleetDayReportJson(*replay, 0));
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalCacheOff) {
  FleetConfig cfg;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  ASSERT_FALSE(expected.empty());
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardSideReplayByteIdenticalToUnsharded) {
  // Embedded reports: shards replay their own days and the merge is pure
  // report concatenation — it must still be byte-for-byte the unsharded run.
  FleetConfig cfg;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  ASSERT_FALSE(expected.empty());
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardSideReports(cfg, n));
  }
}

TEST_F(FleetShardFixture, BlobWithReportsRoundTripIsIdentity) {
  FleetShardBlob blob;
  blob.header = FleetShardHeader{1, 2, kFleetDays, {Checksum()}};
  blob.days[1].push_back(DecideAndReplay(FleetConfig{}, 1));
  auto text = SerializeFleetShard(blob);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto parsed = ParseFleetShard(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->days.size(), 1u);
  ASSERT_EQ(parsed->days.at(1).size(), 1u);
  ASSERT_TRUE(parsed->days.at(1)[0].report.has_value());
  // The reconstructed report renders to the same canonical JSON (outcome
  // cut bitsets are rebuilt from the decision records, not re-serialized).
  EXPECT_EQ(FleetDayReportJson(*blob.days.at(1)[0].report, 1),
            FleetDayReportJson(*parsed->days.at(1)[0].report, 1));
  auto text2 = SerializeFleetShard(*parsed);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
}

TEST_F(FleetShardFixture, SerializeRejectsInconsistentReports) {
  FleetShardBlob blob;
  blob.header = FleetShardHeader{0, 2, kFleetDays, {0}};
  blob.days[0].push_back(DecideAndReplay(FleetConfig{}, 0));
  ASSERT_TRUE(SerializeFleetShard(blob).ok());
  // The embedded report's outcome count disagrees with the decisions.
  ShardArmDay& arm = blob.days.at(0)[0];
  ASSERT_FALSE(arm.report->outcomes.empty());
  arm.report->outcomes.pop_back();
  EXPECT_FALSE(SerializeFleetShard(blob).ok());
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalCacheOn) {
  // Exact-mode template cache: cross-day hits make the merge's cache state
  // the interesting part — it must evolve exactly as in the sequential run.
  FleetConfig cfg;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 64;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  EXPECT_NE(expected.find("\"cache_hits\""), std::string::npos);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalApproximateCache) {
  // Approximate mode serves drifted followers from stale entries; leader
  // decisions are still computed fresh in both paths, so byte-identity must
  // hold here too.
  FleetConfig cfg;
  cfg.template_cache.enabled = true;
  cfg.template_cache.capacity = 64;
  cfg.template_cache.quantize_bps = 5000;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/false);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/false, n));
  }
}

TEST_F(FleetShardFixture, ShardMergeByteIdenticalBudgeted) {
  FleetConfig cfg;
  cfg.storage_budget_bytes = 2e9;
  const std::string expected = SequentialReports(cfg, /*budgeted=*/true);
  EXPECT_NE(expected.find("\"knapsack_threshold\""), std::string::npos);
  for (int n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(expected, ShardedReports(cfg, /*budgeted=*/true, n));
  }
}

TEST_F(FleetShardFixture, BlobTextRoundTripIsIdentity) {
  FleetShardBlob blob;
  blob.header = FleetShardHeader{1, 2, kFleetDays, {Checksum()}};
  blob.days[1].push_back(ShardArmDay{Decide(FleetConfig{}, 1), std::nullopt});
  auto text = SerializeFleetShard(blob);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->rfind("phoebe_shard 4\n", 0), 0u);
  auto parsed = ParseFleetShard(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.arm_checksums, blob.header.arm_checksums);
  EXPECT_FALSE(parsed->days.at(1)[0].report.has_value());
  auto text2 = SerializeFleetShard(*parsed);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
}

TEST_F(FleetShardFixture, SerializeRejectsForeignDays) {
  FleetShardBlob blob;
  blob.header = FleetShardHeader{1, 2, kFleetDays, {0}};
  blob.days[0].emplace_back();  // day 0 belongs to shard 0, not 1
  EXPECT_FALSE(SerializeFleetShard(blob).ok());
  blob.header = FleetShardHeader{0, 1, kFleetDays, {0}};
  blob.days.clear();
  blob.days[kFleetDays + 3].emplace_back();  // outside the day range
  EXPECT_FALSE(SerializeFleetShard(blob).ok());
  // Every day carries exactly the header's arms, and a blob has >= 1 arm.
  blob.days.clear();
  blob.days[0].resize(2);
  EXPECT_FALSE(SerializeFleetShard(blob).ok());
  blob.days[0].resize(1);
  EXPECT_TRUE(SerializeFleetShard(blob).ok());
  blob.header.arm_checksums.clear();
  blob.days.clear();
  EXPECT_FALSE(SerializeFleetShard(blob).ok());
}

TEST_F(FleetShardFixture, CombineValidatesShardSet) {
  const uint32_t checksum = Checksum();
  FleetShardBlob b0 = ShardBlob(0, 2, {FleetConfig{}});
  FleetShardBlob b1 = ShardBlob(1, 2, {FleetConfig{}});

  // Complete set merges and covers every day.
  auto ok = CombineFleetShards({b0, b1}, {checksum});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), static_cast<size_t>(kFleetDays));
  for (const auto& [day, arms] : *ok) {
    ASSERT_EQ(arms.size(), 1u) << "day " << day;
    EXPECT_FALSE(arms[0].report.has_value());  // decide-only shards
  }

  // Missing shard, duplicate shard, and wrong bundle all refuse.
  EXPECT_FALSE(CombineFleetShards({b0}, {checksum}).ok());
  EXPECT_FALSE(CombineFleetShards({b0, b0}, {checksum}).ok());
  EXPECT_FALSE(CombineFleetShards({b0, b1}, {checksum + 1}).ok());
  EXPECT_FALSE(CombineFleetShards({}, {checksum}).ok());
}

TEST_F(FleetShardFixture, CombineRejectsMismatchedArms) {
  // A two-arm run's blobs, arm 1 decided under a different bundle: the merge
  // must check every arm's checksum and the arm count, not just arm 0's.
  const uint32_t a = Checksum();
  const uint32_t b = a ^ 0x5a5a5a5au;
  std::vector<FleetShardBlob> blobs{ShardBlob(0, 2, {FleetConfig{}, FleetConfig{}}),
                                    ShardBlob(1, 2, {FleetConfig{}, FleetConfig{}})};
  for (FleetShardBlob& blob : blobs) blob.header.arm_checksums[1] = b;

  auto ok = CombineFleetShards(blobs, {a, b});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  for (const auto& [day, arms] : *ok) EXPECT_EQ(arms.size(), 2u) << "day " << day;

  auto wrong_arm1 = CombineFleetShards(blobs, {a, a});
  ASSERT_FALSE(wrong_arm1.ok());
  EXPECT_NE(wrong_arm1.status().message().find("arm 1"), std::string::npos)
      << wrong_arm1.status().ToString();
  // An extra arm in the blobs (a two-arm blob merged into a one-arm run) and
  // a missing one (merged into a three-arm run) refuse too.
  EXPECT_FALSE(CombineFleetShards(blobs, {a}).ok());
  EXPECT_FALSE(CombineFleetShards(blobs, {a, b, b}).ok());
}

TEST_F(FleetShardFixture, ParseRejectsMalformedBlobs) {
  FleetShardBlob blob;
  blob.header = FleetShardHeader{0, 2, kFleetDays, {0x1234u, 0x5678u}};
  blob.days[0].push_back(ShardArmDay{Decide(FleetConfig{}, 0), std::nullopt});
  blob.days[0].push_back(ShardArmDay{FleetDayDecisions{}, std::nullopt});
  auto text = SerializeFleetShard(blob);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(ParseFleetShard(*text).ok());
  auto replace = [&](const std::string& from, const std::string& to) {
    std::string t = *text;
    size_t at = t.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) t.replace(at, from.size(), to);
    return t;
  };

  EXPECT_FALSE(ParseFleetShard("").ok());
  EXPECT_FALSE(ParseFleetShard("garbage\n").ok());
  EXPECT_FALSE(ParseFleetShard(text->substr(0, text->size() / 2)).ok());
  EXPECT_FALSE(ParseFleetShard(text->substr(0, text->size() - 1)).ok());
  EXPECT_FALSE(ParseFleetShard(*text + "junk\n").ok());
  // Only the current version parses: older and future versions are refused.
  for (const char* version : {" 1\n", " 2\n", " 3\n", " 5\n"}) {
    auto other = ParseFleetShard(replace(" 4\n", version));
    ASSERT_FALSE(other.ok()) << version;
    EXPECT_NE(other.status().message().find("unsupported shard blob version"),
              std::string::npos)
        << other.status().ToString();
  }
  // The header's arm count must match its checksum list.
  EXPECT_FALSE(ParseFleetShard(replace(" arms 2 ", " arms 3 ")).ok());
  EXPECT_FALSE(ParseFleetShard(replace(" arms 2 ", " arms 1 ")).ok());
  EXPECT_FALSE(ParseFleetShard(replace(" arms 2 ", " arms 0 ")).ok());
  EXPECT_FALSE(ParseFleetShard(replace(" 00005678", " 0000567g")).ok());
  // Each day holds exactly one section per arm, in order.
  EXPECT_FALSE(ParseFleetShard(replace("arm 1 jobs 0\n", "arm 2 jobs 0\n")).ok());
  EXPECT_FALSE(ParseFleetShard(replace("arm 1 jobs 0\nend_arm\n", "")).ok());
  EXPECT_FALSE(ParseFleetShard(replace("arm 1 jobs 0\n", "arm 1 jobs 1\n")).ok());
  EXPECT_FALSE(
      ParseFleetShard(replace("end_day\n", "arm 2 jobs 0\nend_arm\nend_day\n")).ok());
  EXPECT_FALSE(ParseFleetShard(replace("end_arm\nend_day\n", "end_day\n")).ok());
}

TEST_F(FleetShardFixture, ArmSectionsRoundTrip) {
  // An A/B shard: arm 0 (default config) and arm 1 (two cuts per job), each
  // with its own embedded report — every arm is the same kind of record.
  FleetConfig cfg0;
  FleetConfig cfg1;
  cfg1.num_cuts = 2;
  FleetShardBlob blob;
  blob.header = FleetShardHeader{0, 1, kFleetDays, {0xabcd1234u, 0x0badf00du}};
  for (int d = 0; d < kFleetDays; ++d) {
    blob.days[d].push_back(DecideAndReplay(cfg0, d));
    blob.days[d].push_back(DecideAndReplay(cfg1, d));
  }
  auto text = SerializeFleetShard(blob);
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  auto parsed = ParseFleetShard(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.arm_checksums, blob.header.arm_checksums);
  ASSERT_EQ(parsed->days.size(), blob.days.size());
  // Re-serializing the parsed blob reproduces the text byte for byte, and
  // every arm's report round-trips to the canonical JSON byte for byte.
  auto again = SerializeFleetShard(*parsed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *text);
  for (const auto& [d, arms] : blob.days) {
    ASSERT_EQ(parsed->days.at(d).size(), 2u);
    for (size_t k = 0; k < arms.size(); ++k) {
      EXPECT_EQ(FleetDayReportJson(*parsed->days.at(d)[k].report, d),
                FleetDayReportJson(*arms[k].report, d));
    }
  }

  // The combine carries every arm through to the merged map.
  auto merged = CombineFleetShards({*parsed}, blob.header.arm_checksums);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), blob.days.size());
  EXPECT_EQ(merged->at(0).size(), 2u);
}

TEST_F(FleetShardFixture, ReplayRejectsMismatchedDecisions) {
  DecisionArm arm(&pipeline_->engine(), FleetConfig{});
  const telemetry::HistoricStats stats = FleetStats(0);
  FleetDayDecisions truncated = Decide(FleetConfig{}, 0);
  ASSERT_FALSE(truncated.decisions.empty());
  truncated.decisions.pop_back();
  EXPECT_FALSE(arm.ReplayDay(Context(0, stats), truncated).ok());
  FleetDayDecisions empty;
  EXPECT_FALSE(arm.ReplayDay(Context(0, stats), empty).ok());
}

}  // namespace
}  // namespace phoebe::core
