// Corruption fuzzing of the PipelineBundle loader: a bundle file is the one
// artifact that crosses the train/serve process boundary, so FromText must
// return a clean error Status for ANY byte sequence — truncations, bit
// flips, header tampering, checksum damage — and never crash, throw, or trip
// a sanitizer. The checked-in corpus under tests/fuzz_corpus/ pins one valid
// artifact (format v1) so format drift that breaks old files is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bundle.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "testing/fuzz.h"
#include "testing/property.h"
#include "workload/generator.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

Status ParseBundle(const std::string& text) {
  return core::PipelineBundle::FromText(text).status();
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

/// A freshly trained tiny bundle, serialized — so mutations always start
/// from a structurally current document even if the corpus ages.
std::string TrainedBundleText() {
  static const std::string* text = [] {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 8;
    wcfg.seed = 13;
    workload::WorkloadGenerator gen(wcfg);
    telemetry::WorkloadRepository repo;
    for (int d = 0; d < 3; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();
    core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 8;
    cfg.size_predictor.gbdt.num_trees = 8;
    cfg.ttl.gbdt.num_trees = 8;
    core::PhoebePipeline p(cfg);
    p.Train(repo, 0, 3).Check();
    auto serialized = p.bundle()->ToText();
    serialized.status().Check();
    return new std::string(std::move(*serialized));
  }();
  return *text;
}

std::vector<std::string> BundleSeeds() {
  std::vector<std::string> seeds;
  for (const auto& p : CorpusFiles(".bundle")) seeds.push_back(ReadFileOrDie(p));
  seeds.push_back(TrainedBundleText());
  return seeds;
}

TEST(FuzzBundleCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".bundle");
  ASSERT_FALSE(files.empty()) << "no .bundle seeds in " << PHOEBE_FUZZ_CORPUS_DIR;
  for (const auto& p : files) {
    const std::string text = ReadFileOrDie(p);
    Status st = ParseBundle(text);  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
  }
}

TEST(FuzzBundleCorpusTest, ValidSeedRoundTripsAndDecodesTrained) {
  for (const auto& p : CorpusFiles(".bundle")) {
    if (p.filename().string().find("_valid") == std::string::npos) continue;
    auto bundle = core::PipelineBundle::FromText(ReadFileOrDie(p));
    ASSERT_TRUE(bundle.ok()) << p << ": " << bundle.status().ToString();
    EXPECT_TRUE((*bundle)->trained());
    auto text = (*bundle)->ToText();
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, ReadFileOrDie(p)) << p << " does not round-trip";
  }
}

TEST(FuzzBundleTest, LoaderSurvivesCorruption) {
  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0xb0bd;
  FuzzReport report = FuzzParser(opt, BundleSeeds(), ParseBundle);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(600));
  // The checksum makes nearly every mutation a rejection; the contract under
  // test is purely "reject cleanly, never crash".
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzShardBlobCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = CorpusFiles(".blob");
  ASSERT_FALSE(files.empty()) << "no .blob seeds in " << PHOEBE_FUZZ_CORPUS_DIR;
  for (const auto& p : files) {
    const std::string name = p.filename().string();
    const std::string text = ReadFileOrDie(p);
    Status st = ParseShardBlob(text);  // must return, never crash
    if (name.find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
    }
    if (name.find("old_version") != std::string::npos) {
      // A blob from an older format version is refused by its version line,
      // not by whatever body line it trips over first.
      EXPECT_NE(st.message().find("unsupported shard blob version"),
                std::string::npos)
          << p << ": " << st.ToString();
    }
  }
}

TEST(FuzzShardBlobCorpusTest, ValidSeedsRoundTrip) {
  // Every valid seed must reserialize byte-identically, arm sections and
  // embedded report sections included.
  for (const auto& p : CorpusFiles(".blob")) {
    if (p.filename().string().find("_valid") == std::string::npos) continue;
    const std::string text = ReadFileOrDie(p);
    auto blob = core::ParseFleetShard(text);
    ASSERT_TRUE(blob.ok()) << p << ": " << blob.status().ToString();
    EXPECT_GE(blob->header.arm_checksums.size(), 2u) << p;
    auto text2 = core::SerializeFleetShard(*blob);
    ASSERT_TRUE(text2.ok()) << p;
    EXPECT_EQ(*text2, text) << p << " does not round-trip";
  }
}

TEST(FuzzBundleTest, ShardBlobParserSurvivesCorruption) {
  // The shard blob is the other cross-process artifact; same total contract.
  // Seeds: a freshly serialized one-arm blob plus the checked-in corpus
  // files (including the old-version seed).
  core::FleetDayDecisions day;
  day.decisions.resize(3);
  core::FleetDecision d;
  d.combined.objective = 123.5;
  d.combined.global_bytes = 42.0;
  d.combined.cut.before_cut = {true, true, false, false};
  d.cuts.push_back(d.combined.cut);
  day.decisions[1].emplace(std::move(d));
  core::FleetShardBlob fresh;
  fresh.header = core::FleetShardHeader{0, 2, 4, {0xdeadbeefu}};
  fresh.days[0].push_back(core::ShardArmDay{std::move(day), std::nullopt});
  auto blob = core::SerializeFleetShard(fresh);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  std::vector<std::string> seeds{*blob};
  for (const auto& p : CorpusFiles(".blob")) seeds.push_back(ReadFileOrDie(p));

  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0x5aad;
  FuzzReport report = FuzzParser(opt, seeds, ParseShardBlob);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

}  // namespace
}  // namespace phoebe::testing
