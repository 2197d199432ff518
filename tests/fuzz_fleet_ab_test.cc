// Corruption fuzzing of the paired A/B report parser and the shard-blob
// per-arm sections. Both are cross-process artifacts (the report is the A/B
// harness's output contract, the arm sections ship every arm's decide phase
// between shard processes), so their parsers must return a clean error
// Status for ANY byte sequence — truncations, bit flips, count tampering,
// header damage — and never crash or trip a sanitizer. The checked-in
// corpus pins one valid paired report (format drift that breaks old reports
// is caught) and a single-character regression the parser must reject.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet_ab.h"
#include "core/fleet_shard.h"
#include "testing/fuzz.h"
#include "testing/property.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

Status ParseAb(const std::string& text) {
  return core::ParseAbReport(text).status();
}

Status ParseShardBlob(const std::string& text) {
  return core::ParseFleetShard(text).status();
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> CorpusFiles(const std::string& ext) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PHOEBE_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ext) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// A freshly serialized paired report, so mutations always start from a
/// structurally current document even if the corpus ages. Synthetic but
/// format-complete: two arms, decision flips, and an admission flip.
std::string FreshAbReportText() {
  core::AbDayComparison day;
  day.day = 0;
  day.jobs = 5;
  core::AbArmDaySummary base;
  base.name = "base";
  base.checksum = 0xc0ffee01u;
  base.jobs_considered = 5;
  base.jobs_with_cut = 4;
  base.jobs_admitted = 3;
  base.storage_used_bytes = 1e9;
  base.total_temp_byte_seconds = 5e12;
  base.realized_saving_byte_seconds = 2e12;
  base.saving_fraction = 0.4;
  base.cost = 0.6;
  core::AbArmDaySummary variant = base;
  variant.name = "variant";
  variant.checksum = 0xc0ffee02u;
  variant.saving_fraction = 0.5;
  variant.cost = 0.5;
  day.arms = {base, variant};
  core::AbArmDelta self;  // arm 0's trivial all-zero self-diff
  core::AbArmDelta delta;
  delta.decision_flips = 2;
  delta.admission_flips = 1;
  delta.flipped_jobs = {{1, 2}, {3, 0}};
  delta.admission_flipped = {{2, true}};
  delta.saving_delta = 0.1;
  delta.cost_delta = -0.1;
  day.deltas = {self, delta};
  return core::SerializeAbReport({day});
}

/// A freshly serialized three-arm blob: arm 1 flips one decision against
/// arm 0, and arm 2 carries an embedded report.
std::string FreshMultiArmBlobText() {
  core::FleetDayDecisions arm0;
  arm0.decisions.resize(3);
  core::FleetDecision d;
  d.combined.objective = 123.5;
  d.combined.global_bytes = 42.0;
  d.combined.cut.before_cut = {true, true, false, false};
  d.cuts.push_back(d.combined.cut);
  arm0.decisions[1].emplace(d);
  core::FleetDayDecisions arm1 = arm0;
  arm1.decisions[2].emplace(d);
  core::FleetDayReport report;
  report.jobs_considered = 1;
  report.jobs_with_cut = 1;
  report.jobs_admitted = 1;
  report.outcomes.resize(3);
  report.outcomes[1].admitted = true;
  report.outcomes[1].global_bytes = 42.0;
  core::FleetShardBlob blob;
  blob.header = core::FleetShardHeader{0, 1, 1, {0xdeadbeefu, 0xdeadbeefu, 0x0badf00du}};
  blob.days[0] = {core::ShardArmDay{arm0, std::nullopt},
                  core::ShardArmDay{arm1, std::nullopt},
                  core::ShardArmDay{arm0, report}};
  auto text = core::SerializeFleetShard(blob);
  text.status().Check();
  return *text;
}

TEST(FuzzAbReportCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".abreport");
  ASSERT_GE(files.size(), 2u) << "ab_report seeds missing from "
                              << PHOEBE_FUZZ_CORPUS_DIR;
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseAb(text);  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      // The tampered seed: count/record consistency catches the damage.
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

TEST(FuzzAbReportCorpusTest, ValidSeedRoundTrips) {
  for (const auto& p : CorpusFiles(".abreport")) {
    if (p.filename().string().find("_valid") == std::string::npos) continue;
    const std::string text = ReadFileOrDie(p);
    auto parsed = core::ParseAbReport(text);
    ASSERT_TRUE(parsed.ok()) << p << ": " << parsed.status().ToString();
    EXPECT_EQ(core::SerializeAbReport(*parsed), text)
        << p << " does not round-trip";
  }
}

TEST(FuzzAbReportTest, ParserSurvivesCorruption) {
  const std::string fresh = FreshAbReportText();
  ASSERT_TRUE(ParseAb(fresh).ok()) << ParseAb(fresh).ToString();

  std::vector<std::string> seeds{fresh};
  for (const auto& p : CorpusFiles(".abreport")) seeds.push_back(ReadFileOrDie(p));

  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0xabab;
  FuzzReport report = FuzzParser(opt, seeds, ParseAb);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(600));
  // Strict counts and labels make nearly every mutation a rejection; the
  // contract under test is purely "reject cleanly, never crash".
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzAbReportTest, ArmSectionParserSurvivesCorruption) {
  // Mutations seeded from multi-arm blobs drive the parser's section loop
  // (arm headers, per-arm job records, embedded reports, end_arm framing)
  // across more than one arm per day.
  const std::string fresh = FreshMultiArmBlobText();
  ASSERT_TRUE(ParseShardBlob(fresh).ok()) << ParseShardBlob(fresh).ToString();

  std::vector<std::string> seeds{fresh};
  for (const auto& p : CorpusFiles(".blob")) {
    if (p.filename().string().find("_valid") != std::string::npos) {
      seeds.push_back(ReadFileOrDie(p));
    }
  }

  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0x3a3a;
  FuzzReport report = FuzzParser(opt, seeds, ParseShardBlob);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(600));
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

}  // namespace
}  // namespace phoebe::testing
