// Corruption fuzzing of the serve wire protocol: a socket delivers arbitrary
// bytes from an untrusted peer, so every layer — frame decoding, the decide
// request payload, the decision response payload — must return a clean error
// Status for ANY input and never crash, mutate out-params on error, or trip a
// sanitizer. The checked-in corpus pins one valid request frame (so format
// drift that breaks old clients is caught) and one regression frame with a
// flipped CRC digit (the checksum gate must fire on a well-shaped header).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "testing/fuzz.h"
#include "testing/property.h"
#include "workload/generator.h"

namespace phoebe::testing {
namespace {

#ifndef PHOEBE_FUZZ_CORPUS_DIR
#error "PHOEBE_FUZZ_CORPUS_DIR must point at tests/fuzz_corpus"
#endif

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> ServeCorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PHOEBE_FUZZ_CORPUS_DIR)) {
    if (entry.path().filename().string().rfind("serve_", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

workload::JobInstance CorpusJob(int index) {
  workload::WorkloadConfig cfg;
  cfg.num_templates = 8;
  cfg.seed = 13;
  workload::WorkloadGenerator gen(cfg);
  auto jobs = gen.GenerateDay(0);
  EXPECT_LT(static_cast<size_t>(index), jobs.size());
  return jobs[static_cast<size_t>(index)];
}

/// The full server-side receive path: frame decode, then — when the frame is
/// a decide request — the payload parse the worker would run. Fuzzing the
/// composition is what matters: a frame that passes the CRC gate still
/// reaches the deeper parser.
Status ParseWireRequest(const std::string& text) {
  serve::Frame frame;
  PHOEBE_RETURN_NOT_OK(serve::ParseFrame(text, &frame));
  if (frame.type == serve::FrameType::kDecide) {
    serve::DecideRequest request;
    PHOEBE_RETURN_NOT_OK(serve::ParseDecideRequest(frame.payload, &request));
  }
  return Status::OK();
}

Status ParseRequestPayload(const std::string& text) {
  serve::DecideRequest request;
  return serve::ParseDecideRequest(text, &request);
}

Status ParseResponsePayload(const std::string& text) {
  serve::DecideResponse response;
  return serve::ParseDecideResponse(text, &response);
}

std::vector<std::string> FrameSeeds() {
  std::vector<std::string> seeds;
  for (const auto& p : ServeCorpusFiles()) seeds.push_back(ReadFileOrDie(p));
  // Freshly encoded frames too, so mutations always start from structurally
  // current bytes even if the corpus ages.
  seeds.push_back(serve::EncodeFrame(
      {serve::FrameType::kDecide, 1,
       serve::SerializeDecideRequest(CorpusJob(1), core::DecideOptions{})}));
  seeds.push_back(serve::EncodeFrame({serve::FrameType::kPing, 2, ""}));
  seeds.push_back(serve::EncodeFrame({serve::FrameType::kReload, 3, "bundle b.txt"}));
  return seeds;
}

TEST(FuzzServeCorpusTest, FilesNeverCrashAndValidSeedsParse) {
  auto files = ServeCorpusFiles();
  ASSERT_FALSE(files.empty()) << "no serve_* seeds in " << PHOEBE_FUZZ_CORPUS_DIR;
  bool saw_valid = false, saw_invalid = false;
  for (const auto& p : files) {
    Status st = ParseWireRequest(ReadFileOrDie(p));  // must return, never crash
    if (p.filename().string().find("_valid") != std::string::npos) {
      EXPECT_TRUE(st.ok()) << p << ": " << st.ToString();
      saw_valid = true;
    } else {
      EXPECT_FALSE(st.ok()) << p << " unexpectedly parsed";
      saw_invalid = true;
    }
  }
  EXPECT_TRUE(saw_valid) << "corpus lost its valid request seed";
  EXPECT_TRUE(saw_invalid) << "corpus lost its regression frame";
}

TEST(FuzzServeCorpusTest, BadCrcRegressionFailsOnTheChecksumGate) {
  serve::Frame frame{serve::FrameType::kOk, 99, "sentinel"};
  Status st = serve::ParseFrame(
      ReadFileOrDie(std::filesystem::path(PHOEBE_FUZZ_CORPUS_DIR) /
                    "serve_request_bad_crc.bin"),
      &frame);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos) << st.ToString();
  // Out-params untouched on error.
  EXPECT_EQ(frame.payload, "sentinel");
  EXPECT_EQ(frame.id, 99u);
}

TEST(FuzzServeTest, FrameAndRequestPathSurvivesCorruption) {
  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0x5e17e;
  FuzzReport report = FuzzParser(opt, FrameSeeds(), ParseWireRequest);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.inputs_run, ScaledCaseCount(600));
  // The CRC makes nearly every mutation a rejection; the contract under test
  // is purely "reject cleanly, never crash".
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzServeTest, RequestPayloadParserSurvivesCorruption) {
  // Behind the CRC gate, the payload parser still faces hostile bytes (a
  // client can frame garbage correctly), so it gets its own fuzz pass.
  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0xdec1de;
  core::DecideOptions options;
  options.num_cuts = 2;
  FuzzReport report = FuzzParser(
      opt, {serve::SerializeDecideRequest(CorpusJob(0), options)}, ParseRequestPayload);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

TEST(FuzzServeTest, ResponsePayloadParserSurvivesCorruption) {
  core::FleetDecision d;
  d.combined.objective = 1234.5;
  d.combined.global_bytes = 6.7e10;
  d.combined.cut.before_cut = {true, true, false, false, false};
  d.cuts.push_back(d.combined.cut);
  std::vector<std::string> seeds = {
      serve::SerializeDecideResponse(0xabad1deau, &d),
      serve::SerializeDecideResponse(0x0u, nullptr),
  };
  FuzzOptions opt;
  opt.num_inputs = 600;
  opt.seed = 0xab5;
  FuzzReport report = FuzzParser(opt, seeds, ParseResponsePayload);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_GT(report.rejected, 0) << report.Describe();
}

}  // namespace
}  // namespace phoebe::testing
