// Serve wire protocol: length-framed, CRC-checked request/response frames
// for the `phoebe serve` decision daemon.
//
// The socket is the third artifact boundary in the repo (after the bundle
// file and the shard blob), and it reuses their framing idiom: a strict
// text header carrying a byte length and a CRC-32, followed by exactly that
// many payload bytes. One frame on the wire:
//
//   phoebe_frame 1 <type> <id> <nbytes> <crc32 hex8>\n
//   <nbytes payload bytes>\n
//
//   * `type` is one of the request tokens (`decide`, `reload`, `ping`,
//     `shutdown`) or response tokens (`decision`, `ok`, `error`).
//   * `id` is a client-assigned request id; the matching response echoes it
//     (responses to one connection may complete out of order when the
//     server coalesces batches across workers).
//   * `nbytes` is the exact payload length, capped at kMaxPayloadBytes so a
//     hostile length can never drive a huge allocation.
//   * the CRC-32 covers the payload bytes, so a flipped bit inside an
//     otherwise well-framed payload is rejected before any deeper parser
//     runs — the same gate the bundle file applies.
//
// Payloads are themselves text documents built from existing formats:
//   decide request   `decide_options <objective> <source> <num_cuts>\n`
//                    + workload::SerializeTrace of exactly one job
//   decision reply   `decision <bundle-checksum hex8>\n` + one shard-blob
//                    job record (`job 0 ...` / `cut <bits>`; see
//                    core/fleet_shard.h) — the decision wire format IS the
//                    shard format, so both cross-process paths stay pinned
//                    by the same tests
//   reload request   `bundle <path>\n` (empty = reload the path the server
//                    was started with)
//   ok reply         `pong` / `reloaded <checksum hex8>` / `bye`
//   error reply      the Status rendered as text (never a crash server-side)
//
// Every parser here is total: for ANY byte sequence it returns a frame or a
// clean error Status, with out-params untouched on error
// (fuzz_serve_test pins this under ASan/UBSan with corrupted frames).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"
#include "workload/job_instance.h"

namespace phoebe::serve {

/// Frame kinds, requests then responses. Token order matches FrameTypeToken.
enum class FrameType {
  kDecide,    ///< request: decide one job
  kReload,    ///< request: hot-swap the served bundle
  kPing,      ///< request: liveness probe
  kShutdown,  ///< request: ask the daemon to stop accepting and exit
  kDecision,  ///< response: a decide result
  kOk,        ///< response: success for ping/reload/shutdown
  kError,     ///< response: Status text for a failed request
};

/// Wire token for a frame type ("decide", "decision", ...).
const char* FrameTypeToken(FrameType type);
/// Inverse of FrameTypeToken; unknown tokens are an error.
Status FrameTypeFromToken(std::string_view token, FrameType* out);

/// \brief One protocol frame: type + request id + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t id = 0;
  std::string payload;
};

inline constexpr const char* kFrameMagic = "phoebe_frame";
inline constexpr int kFrameVersion = 1;
/// Hard cap on `nbytes`: a hostile header cannot force a large allocation.
/// Generous for real traffic (a serialized job is a few KB).
inline constexpr size_t kMaxPayloadBytes = 8u << 20;
/// A well-formed header line always fits in this many bytes; a longer
/// prefix without a newline is malformed, not "need more".
inline constexpr size_t kMaxHeaderBytes = 128;

/// Serialize one frame (header + payload + separator newline).
std::string EncodeFrame(const Frame& frame);

/// \brief Outcome of one incremental decode attempt.
enum class FrameDecode {
  kFrame,     ///< a complete frame was decoded; *consumed bytes were used
  kNeedMore,  ///< `buffer` is a proper prefix of a valid frame; read more
  kError,     ///< malformed bytes; *error says why (connection must close)
};

/// Decode the first frame in `buffer`. On kFrame, fills *out and sets
/// *consumed to the bytes the frame occupied (the caller erases them and
/// retries for pipelined frames). On kNeedMore nothing is written. On
/// kError, *error is set and *out / *consumed are untouched.
FrameDecode DecodeFrame(std::string_view buffer, Frame* out, size_t* consumed,
                        Status* error);

/// Parse a string that must contain exactly one complete frame (truncation
/// and trailing bytes are errors). `*out` untouched on error. This is the
/// fuzz entry point.
Status ParseFrame(const std::string& text, Frame* out);

/// \brief A parsed decide request: the job plus its decision context.
struct DecideRequest {
  core::DecideOptions options;
  workload::JobInstance job;
};

/// Build a decide-request payload for one job.
std::string SerializeDecideRequest(const workload::JobInstance& job,
                                   const core::DecideOptions& options);
/// Strict parse of a decide-request payload (options line + a one-job
/// trace). The payload must be byte-for-byte what SerializeDecideRequest
/// emits for the parsed request (one canonical wire form; no trailing
/// bytes): the check re-serializes the parsed request into `*scratch` and
/// compares bytes, so a caller that parses many requests passes one buffer
/// it keeps between them (null = a temporary). `*out` untouched on error.
Status ParseDecideRequest(std::string_view payload, DecideRequest* out,
                          std::string* scratch = nullptr);

/// \brief A parsed decision response: which bundle answered, and the
/// decision (nullopt = job ineligible, mirroring the shard blob's `-`).
struct DecideResponse {
  uint32_t bundle_checksum = 0;
  std::optional<core::FleetDecision> decision;
};

/// Build a decision-response payload; `decision` null = the job is
/// ineligible. The job record reuses the shard-blob line format byte for
/// byte, so socket answers are directly comparable to shard/merge artifacts
/// from the same bundle.
std::string SerializeDecideResponse(uint32_t bundle_checksum,
                                    const core::FleetDecision* decision);
/// Strict parse of a decision-response payload. `*out` untouched on error.
Status ParseDecideResponse(const std::string& payload, DecideResponse* out);

/// Wire token for an objective ("temp" / "recovery"), matching the CLI.
const char* ObjectiveToken(core::Objective objective);
/// Inverse of ObjectiveToken; unknown tokens are an error.
Status ObjectiveFromToken(std::string_view token, core::Objective* out);

}  // namespace phoebe::serve
