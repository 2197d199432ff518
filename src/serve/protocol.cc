#include "serve/protocol.h"

#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/fleet_shard.h"
#include "workload/trace.h"

namespace phoebe::serve {

namespace {

/// Split `payload` at the first newline into (line, rest). The line is
/// required: a payload without any newline is malformed for every
/// structured payload kind.
Status FirstLine(const std::string& payload, std::string* line, std::string* rest) {
  size_t nl = payload.find('\n');
  if (nl == std::string::npos) {
    return Status::InvalidArgument("serve payload: missing header line");
  }
  *line = payload.substr(0, nl);
  *rest = payload.substr(nl + 1);
  return Status::OK();
}

}  // namespace

const char* FrameTypeToken(FrameType type) {
  switch (type) {
    case FrameType::kDecide: return "decide";
    case FrameType::kReload: return "reload";
    case FrameType::kPing: return "ping";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kDecision: return "decision";
    case FrameType::kOk: return "ok";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

Status FrameTypeFromToken(std::string_view token, FrameType* out) {
  for (FrameType t : {FrameType::kDecide, FrameType::kReload, FrameType::kPing,
                      FrameType::kShutdown, FrameType::kDecision, FrameType::kOk,
                      FrameType::kError}) {
    if (token == FrameTypeToken(t)) {
      *out = t;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("serve frame: unknown type token '" + std::string(token) +
                                 "'");
}

std::string EncodeFrame(const Frame& frame) {
  std::string out = StrFormat("%s %d %s %llu %zu %08x\n", kFrameMagic, kFrameVersion,
                              FrameTypeToken(frame.type),
                              static_cast<unsigned long long>(frame.id),
                              frame.payload.size(), Crc32(frame.payload));
  out += frame.payload;
  out += '\n';
  return out;
}

FrameDecode DecodeFrame(std::string_view buffer, Frame* out, size_t* consumed,
                        Status* error) {
  size_t nl = buffer.find('\n');
  if (nl == std::string_view::npos) {
    if (buffer.size() >= kMaxHeaderBytes) {
      *error = Status::InvalidArgument("serve frame: header line too long");
      return FrameDecode::kError;
    }
    return FrameDecode::kNeedMore;
  }
  if (nl >= kMaxHeaderBytes) {
    *error = Status::InvalidArgument("serve frame: header line too long");
    return FrameDecode::kError;
  }

  std::vector<std::string_view> tok;
  SplitInto(buffer.substr(0, nl), ' ', &tok);
  if (tok.size() != 6 || tok[0] != kFrameMagic) {
    *error = Status::InvalidArgument("serve frame: bad magic/header shape");
    return FrameDecode::kError;
  }
  int32_t version = 0;
  if (!ParseInt32(tok[1], &version).ok()) {
    *error = Status::InvalidArgument("serve frame: malformed version");
    return FrameDecode::kError;
  }
  if (version != kFrameVersion) {
    *error = Status::InvalidArgument(StrFormat(
        "serve frame: unsupported version %d (expected %d)", version, kFrameVersion));
    return FrameDecode::kError;
  }
  FrameType type;
  if (Status st = FrameTypeFromToken(tok[2], &type); !st.ok()) {
    *error = std::move(st);
    return FrameDecode::kError;
  }
  int64_t id = 0;
  if (!ParseInt64(tok[3], &id).ok() || id < 0) {
    *error = Status::InvalidArgument("serve frame: malformed id '" + std::string(tok[3]) + "'");
    return FrameDecode::kError;
  }
  int64_t nbytes = 0;
  if (!ParseInt64(tok[4], &nbytes).ok() || nbytes < 0) {
    *error =
        Status::InvalidArgument("serve frame: malformed length '" + std::string(tok[4]) + "'");
    return FrameDecode::kError;
  }
  if (static_cast<size_t>(nbytes) > kMaxPayloadBytes) {
    *error = Status::InvalidArgument(
        StrFormat("serve frame: payload length %lld exceeds cap %zu",
                  static_cast<long long>(nbytes), kMaxPayloadBytes));
    return FrameDecode::kError;
  }
  uint32_t stored_crc = 0;
  if (!ParseHexU32(tok[5], &stored_crc).ok()) {
    *error = Status::InvalidArgument("serve frame: malformed checksum '" +
                                     std::string(tok[5]) + "'");
    return FrameDecode::kError;
  }

  // Header parsed; wait for the payload plus its separator newline.
  size_t header_len = nl + 1;
  size_t total = header_len + static_cast<size_t>(nbytes) + 1;
  if (buffer.size() < total) return FrameDecode::kNeedMore;
  std::string_view payload = buffer.substr(header_len, static_cast<size_t>(nbytes));
  if (buffer[total - 1] != '\n') {
    *error = Status::InvalidArgument("serve frame: payload not newline-terminated");
    return FrameDecode::kError;
  }
  uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (actual_crc != stored_crc) {
    *error = Status::InvalidArgument(
        StrFormat("serve frame: payload checksum mismatch: stored %08x, computed %08x",
                  stored_crc, actual_crc));
    return FrameDecode::kError;
  }

  out->type = type;
  out->id = static_cast<uint64_t>(id);
  out->payload.assign(payload.data(), payload.size());
  *consumed = total;
  return FrameDecode::kFrame;
}

Status ParseFrame(const std::string& text, Frame* out) {
  Frame frame;
  size_t consumed = 0;
  Status error;
  switch (DecodeFrame(text, &frame, &consumed, &error)) {
    case FrameDecode::kError:
      return error;
    case FrameDecode::kNeedMore:
      return Status::InvalidArgument("serve frame: truncated");
    case FrameDecode::kFrame:
      break;
  }
  if (consumed != text.size()) {
    return Status::InvalidArgument("serve frame: trailing bytes after frame");
  }
  *out = std::move(frame);
  return Status::OK();
}

const char* ObjectiveToken(core::Objective objective) {
  return objective == core::Objective::kRecovery ? "recovery" : "temp";
}

Status ObjectiveFromToken(std::string_view token, core::Objective* out) {
  if (token == "temp") {
    *out = core::Objective::kTempStorage;
    return Status::OK();
  }
  if (token == "recovery") {
    *out = core::Objective::kRecovery;
    return Status::OK();
  }
  return Status::InvalidArgument("serve: unknown objective token '" + std::string(token) +
                                 "'");
}

namespace {

void AppendDecideRequest(std::string* out, const workload::JobInstance& job,
                         const core::DecideOptions& options) {
  StrAppend(out, "decide_options ", ObjectiveToken(options.objective), ' ',
            core::CostSourceToken(options.source), ' ', options.num_cuts, '\n');
  workload::AppendTrace(out, std::span(&job, 1));
}

}  // namespace

std::string SerializeDecideRequest(const workload::JobInstance& job,
                                   const core::DecideOptions& options) {
  std::string out;
  AppendDecideRequest(&out, job, options);
  return out;
}

Status ParseDecideRequest(std::string_view payload, DecideRequest* out,
                          std::string* scratch) {
  const size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    return Status::InvalidArgument("serve payload: missing header line");
  }
  const std::string_view line = payload.substr(0, nl);
  std::vector<std::string_view> tok;
  SplitInto(line, ' ', &tok);
  if (tok.size() != 4 || tok[0] != "decide_options") {
    return Status::InvalidArgument("serve decide: malformed options line '" +
                                   std::string(line) + "'");
  }
  core::DecideOptions options;
  PHOEBE_RETURN_NOT_OK(ObjectiveFromToken(tok[1], &options.objective));
  PHOEBE_RETURN_NOT_OK(core::CostSourceFromToken(tok[2], &options.source));
  int32_t num_cuts = 0;
  if (!ParseInt32(tok[3], &num_cuts).ok() || num_cuts < 1 || num_cuts > 64) {
    return Status::InvalidArgument("serve decide: bad num_cuts '" + std::string(tok[3]) +
                                   "'");
  }
  options.num_cuts = num_cuts;

  std::vector<workload::JobInstance> jobs;
  PHOEBE_RETURN_NOT_OK(workload::ParseTrace(payload.substr(nl + 1), &jobs));
  if (jobs.size() != 1) {
    return Status::InvalidArgument(
        StrFormat("serve decide: expected exactly 1 job, got %zu", jobs.size()));
  }
  // Canonical-form gate: the payload must be exactly what the serializer
  // emits for the parsed request. This rejects trailing bytes the trace
  // parser would tolerate and pins one wire form per request, so equal
  // requests are equal bytes end to end.
  std::string local;
  std::string* canonical = scratch != nullptr ? scratch : &local;
  canonical->clear();
  AppendDecideRequest(canonical, jobs.front(), options);
  if (*canonical != payload) {
    return Status::InvalidArgument(
        "serve decide: payload is not in canonical serialized form");
  }
  out->options = options;
  out->job = std::move(jobs.front());
  return Status::OK();
}

std::string SerializeDecideResponse(uint32_t bundle_checksum,
                                    const core::FleetDecision* decision) {
  std::string out = StrFormat("decision %08x\n", bundle_checksum);
  core::AppendJobDecisionRecord(&out, 0, decision);
  return out;
}

Status ParseDecideResponse(const std::string& payload, DecideResponse* out) {
  std::string line, rest;
  PHOEBE_RETURN_NOT_OK(FirstLine(payload, &line, &rest));
  std::vector<std::string> tok = Split(line, ' ');
  uint32_t checksum = 0;
  if (tok.size() != 2 || tok[0] != "decision" ||
      !ParseHexU32(tok[1], &checksum).ok()) {
    return Status::InvalidArgument("serve decision: malformed header '" + line + "'");
  }
  std::optional<core::FleetDecision> decision;
  PHOEBE_RETURN_NOT_OK(core::ParseJobDecisionRecord(rest, 0, &decision));
  out->bundle_checksum = checksum;
  out->decision = std::move(decision);
  return Status::OK();
}

}  // namespace phoebe::serve
