// Serve wire protocol unit tests: frame encode/decode (including the
// incremental byte-at-a-time path a socket reader actually exercises),
// payload codecs, and the error contract — every malformed input is a clean
// Status with out-params untouched.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fleet_shard.h"
#include "serve/protocol.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace phoebe::serve {
namespace {

workload::JobInstance TestJob(int index = 0) {
  workload::WorkloadConfig cfg;
  cfg.num_templates = 8;
  cfg.seed = 13;
  workload::WorkloadGenerator gen(cfg);
  auto jobs = gen.GenerateDay(0);
  EXPECT_LT(static_cast<size_t>(index), jobs.size());
  return jobs[static_cast<size_t>(index)];
}

Frame RoundTrip(const Frame& in) {
  Frame out;
  Status st = ParseFrame(EncodeFrame(in), &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(ServeFrameTest, RoundTripsEveryType) {
  for (FrameType type : {FrameType::kDecide, FrameType::kReload, FrameType::kPing,
                         FrameType::kShutdown, FrameType::kDecision, FrameType::kOk,
                         FrameType::kError}) {
    Frame in{type, 42, "some payload\nwith lines"};
    Frame out = RoundTrip(in);
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(ServeFrameTest, RoundTripsEmptyAndBinaryPayloads) {
  EXPECT_EQ(RoundTrip(Frame{FrameType::kPing, 0, ""}).payload, "");
  std::string binary("\x00\x01\xff\n\r\x7f", 6);
  Frame out = RoundTrip(Frame{FrameType::kDecide, 7, binary});
  EXPECT_EQ(out.payload, binary);
}

TEST(ServeFrameTest, IncrementalDecodeNeedsEveryByte) {
  // Feed the wire bytes one at a time: every strict prefix must be kNeedMore
  // (never an error, never a partial frame), and only the full buffer
  // decodes. This is the exact contract the server's reader loop relies on.
  const std::string wire = EncodeFrame(Frame{FrameType::kDecide, 9, "hello"});
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame out;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(DecodeFrame(std::string_view(wire).substr(0, len), &out, &consumed,
                          &error),
              FrameDecode::kNeedMore)
        << "prefix length " << len;
  }
  Frame out;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(DecodeFrame(wire, &out, &consumed, &error), FrameDecode::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.payload, "hello");
}

TEST(ServeFrameTest, PipelinedFramesDecodeInOrder) {
  const std::string wire = EncodeFrame(Frame{FrameType::kPing, 1, ""}) +
                           EncodeFrame(Frame{FrameType::kDecide, 2, "abc"}) +
                           EncodeFrame(Frame{FrameType::kShutdown, 3, ""});
  std::string buffer = wire;
  std::vector<Frame> frames;
  while (!buffer.empty()) {
    Frame out;
    size_t consumed = 0;
    Status error;
    ASSERT_EQ(DecodeFrame(buffer, &out, &consumed, &error), FrameDecode::kFrame);
    buffer.erase(0, consumed);
    frames.push_back(std::move(out));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].id, 1u);
  EXPECT_EQ(frames[1].payload, "abc");
  EXPECT_EQ(frames[2].type, FrameType::kShutdown);
}

TEST(ServeFrameTest, MalformedHeadersAreErrorsWithOutParamsUntouched) {
  const std::string valid = EncodeFrame(Frame{FrameType::kPing, 5, "x"});
  const std::vector<std::string> bad = {
      "phoebe_frame 1 ping 5\n",                 // too few tokens
      "wrong_magic 1 ping 5 1 00000000\nx\n",    // bad magic
      "phoebe_frame 2 ping 5 1 00000000\nx\n",   // unsupported version
      "phoebe_frame one ping 5 1 00000000\nx\n", // non-numeric version
      "phoebe_frame 1 bogus 5 1 00000000\nx\n",  // unknown type token
      "phoebe_frame 1 ping -5 1 00000000\nx\n",  // negative id
      "phoebe_frame 1 ping 5 -1 00000000\nx\n",  // negative length
      "phoebe_frame 1 ping 5 99999999999999 00000000\nx\n",  // over the cap
      "phoebe_frame 1 ping 5 1 zzzzzzzz\nx\n",   // non-hex checksum
      std::string(kMaxHeaderBytes, 'a'),         // long line, no newline
  };
  for (const std::string& text : bad) {
    Frame out{FrameType::kOk, 1234, "sentinel"};
    size_t consumed = 777;
    Status error;
    EXPECT_EQ(DecodeFrame(text, &out, &consumed, &error), FrameDecode::kError)
        << "input: " << text;
    EXPECT_FALSE(error.ok());
    // Out-params untouched on error.
    EXPECT_EQ(out.payload, "sentinel");
    EXPECT_EQ(out.id, 1234u);
    EXPECT_EQ(consumed, 777u);
  }
  // The valid frame still parses after all that (no hidden state).
  Frame out;
  ASSERT_TRUE(ParseFrame(valid, &out).ok());
}

TEST(ServeFrameTest, CorruptPayloadFailsTheChecksum) {
  std::string wire = EncodeFrame(Frame{FrameType::kDecide, 5, "payload bytes"});
  wire[wire.find("payload")] = 'P';  // flip one payload byte; header intact
  Frame out;
  Status st = ParseFrame(wire, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos) << st.ToString();
}

TEST(ServeFrameTest, MissingSeparatorNewlineIsAnError) {
  std::string wire = EncodeFrame(Frame{FrameType::kDecide, 5, "abc"});
  wire.back() = 'x';  // clobber the payload separator newline
  Frame out;
  EXPECT_FALSE(ParseFrame(wire, &out).ok());
}

TEST(ServeFrameTest, ParseFrameRejectsTruncationAndTrailingBytes) {
  const std::string wire = EncodeFrame(Frame{FrameType::kPing, 1, "abc"});
  Frame out;
  EXPECT_FALSE(ParseFrame(wire.substr(0, wire.size() - 1), &out).ok());
  EXPECT_FALSE(ParseFrame(wire + "junk", &out).ok());
  EXPECT_FALSE(ParseFrame("", &out).ok());
}

TEST(ServeFrameTest, TypeTokensRoundTrip) {
  for (FrameType type : {FrameType::kDecide, FrameType::kReload, FrameType::kPing,
                         FrameType::kShutdown, FrameType::kDecision, FrameType::kOk,
                         FrameType::kError}) {
    FrameType parsed;
    ASSERT_TRUE(FrameTypeFromToken(FrameTypeToken(type), &parsed).ok());
    EXPECT_EQ(parsed, type);
  }
  FrameType parsed = FrameType::kOk;
  EXPECT_FALSE(FrameTypeFromToken("nope", &parsed).ok());
  EXPECT_EQ(parsed, FrameType::kOk);
}

TEST(ServeDecideRequestTest, RoundTripsJobAndOptions) {
  workload::JobInstance job = TestJob(2);
  core::DecideOptions options;
  options.objective = core::Objective::kRecovery;
  options.source = core::CostSource::kOptimizerEstimates;
  options.num_cuts = 3;

  DecideRequest parsed;
  Status st = ParseDecideRequest(SerializeDecideRequest(job, options), &parsed);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(parsed.options.objective, options.objective);
  EXPECT_EQ(parsed.options.source, options.source);
  EXPECT_EQ(parsed.options.num_cuts, options.num_cuts);
  // The job round-trips byte-exactly through the trace format.
  EXPECT_EQ(workload::SerializeTrace({parsed.job}), workload::SerializeTrace({job}));
}

TEST(ServeDecideRequestTest, RejectsMalformedPayloads) {
  workload::JobInstance job = TestJob();
  const std::string valid = SerializeDecideRequest(job, core::DecideOptions{});
  const std::string trace = workload::SerializeTrace({job});
  const std::vector<std::string> bad = {
      "",                                            // empty
      "no newline at all",                           // missing header line
      "decide_options temp ml_stacked\n" + trace,    // too few option tokens
      "wrong_tag temp ml_stacked 1\n" + trace,       // bad tag
      "decide_options tmp ml_stacked 1\n" + trace,   // bad objective
      "decide_options temp ml_best 1\n" + trace,     // bad source
      "decide_options temp ml_stacked 0\n" + trace,  // num_cuts < 1
      "decide_options temp ml_stacked 65\n" + trace, // num_cuts > 64
      "decide_options temp ml_stacked 1\n",          // no job
      "decide_options temp ml_stacked 1\n" + trace + trace,  // two jobs
  };
  for (const std::string& payload : bad) {
    DecideRequest out;
    out.options.num_cuts = 55;
    EXPECT_FALSE(ParseDecideRequest(payload, &out).ok()) << payload.substr(0, 60);
    EXPECT_EQ(out.options.num_cuts, 55);  // untouched on error
  }
  DecideRequest out;
  EXPECT_TRUE(ParseDecideRequest(valid, &out).ok());
}

TEST(ServeDecideResponseTest, RoundTripsDecisionAndIneligible) {
  core::FleetDecision d;
  d.combined.objective = 123.456789012345678;
  d.combined.global_bytes = 9.87654321e12;
  d.combined.cut.before_cut = {true, true, false, false};
  d.cuts.push_back(d.combined.cut);

  DecideResponse out;
  Status st = ParseDecideResponse(SerializeDecideResponse(0xdeadbeefu, &d), &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.bundle_checksum, 0xdeadbeefu);
  ASSERT_TRUE(out.decision.has_value());
  EXPECT_DOUBLE_EQ(out.decision->combined.objective, d.combined.objective);
  EXPECT_DOUBLE_EQ(out.decision->combined.global_bytes, d.combined.global_bytes);
  ASSERT_EQ(out.decision->cuts.size(), 1u);
  EXPECT_EQ(out.decision->cuts[0].before_cut, d.combined.cut.before_cut);

  DecideResponse none;
  st = ParseDecideResponse(SerializeDecideResponse(7, nullptr), &none);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(none.bundle_checksum, 7u);
  EXPECT_FALSE(none.decision.has_value());
}

TEST(ServeDecideResponseTest, DecisionRecordSharesShardBlobBytes) {
  // The headline format guarantee: the response's job record IS the shard
  // blob's job record, byte for byte.
  core::FleetDecision d;
  d.combined.objective = 42.0;
  d.combined.global_bytes = 1e9;
  d.combined.cut.before_cut = {true, false, true};
  d.cuts.push_back(d.combined.cut);
  const std::string payload = SerializeDecideResponse(1, &d);
  const std::string record = core::SerializeJobDecisionRecord(0, d);
  ASSERT_NE(payload.find('\n'), std::string::npos);
  EXPECT_EQ(payload.substr(payload.find('\n') + 1), record);
}

TEST(ServeDecideResponseTest, RejectsMalformedPayloads) {
  const std::vector<std::string> bad = {
      "",
      "decision deadbeef",            // no newline
      "decision xyz\njob 0 -\n",      // bad checksum hex
      "verdict deadbeef\njob 0 -\n",  // bad tag
      "decision deadbeef\njob 1 -\n", // wrong job index (must be 0)
      "decision deadbeef\n",          // missing record
      "decision deadbeef\njob 0 1.5 2.5 1\n",  // cut count without cut line
  };
  for (const std::string& payload : bad) {
    DecideResponse out;
    out.bundle_checksum = 99;
    EXPECT_FALSE(ParseDecideResponse(payload, &out).ok()) << payload.substr(0, 40);
    EXPECT_EQ(out.bundle_checksum, 99u);
  }
}

TEST(ServeTokenTest, ObjectiveTokensRoundTrip) {
  core::Objective obj = core::Objective::kTempStorage;
  ASSERT_TRUE(ObjectiveFromToken("recovery", &obj).ok());
  EXPECT_EQ(obj, core::Objective::kRecovery);
  ASSERT_TRUE(ObjectiveFromToken("temp", &obj).ok());
  EXPECT_EQ(obj, core::Objective::kTempStorage);
  EXPECT_EQ(ObjectiveToken(core::Objective::kRecovery), std::string("recovery"));
  obj = core::Objective::kRecovery;
  EXPECT_FALSE(ObjectiveFromToken("Temp", &obj).ok());
  EXPECT_EQ(obj, core::Objective::kRecovery);
}

TEST(ServeTokenTest, CostSourceTokensRoundTrip) {
  for (core::CostSource s :
       {core::CostSource::kTruth, core::CostSource::kOptimizerEstimates,
        core::CostSource::kConstant, core::CostSource::kMlSimulator,
        core::CostSource::kMlStacked}) {
    core::CostSource parsed;
    ASSERT_TRUE(core::CostSourceFromToken(core::CostSourceToken(s), &parsed).ok());
    EXPECT_EQ(parsed, s);
  }
  core::CostSource parsed = core::CostSource::kConstant;
  EXPECT_FALSE(core::CostSourceFromToken("gbdt", &parsed).ok());
  EXPECT_EQ(parsed, core::CostSource::kConstant);
}

}  // namespace
}  // namespace phoebe::serve
