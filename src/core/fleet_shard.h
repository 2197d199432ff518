// Multi-process fleet sharding: the serialization protocol that lets N
// independent processes split a multi-day fleet run by day and still produce
// a FleetDayReport stream byte-identical to the unsharded run.
//
// Protocol (see DESIGN.md "Artifacts & serving"):
//   1. Every process loads the *same* bundle per arm (the header carries
//      every arm's bundle checksum so a mismatched artifact fails loudly at
//      merge). A plain fleet run is the one-arm case; a differential A/B run
//      (core/fleet_ab.h) writes one section per arm.
//   2. Shard I of N decides the days it owns — day d (0-based) belongs to
//      shard d % N — with DecisionArm::DecideDay, which touches no shared
//      state, and writes one blob file.
//   3. A serial merge parses the blobs, checks they tile the day range
//      exactly under the expected arms, and replays each day in order
//      through DecisionArm::ReplayDay. The admission knapsack and the
//      template decision cache are inherently sequential (admission consumes
//      budget in arrival order; the cache carries state across days), so
//      they run only here — and because ReplayDay shares RunDay's code path,
//      the merged reports are byte-for-byte the unsharded ones.
//
// Blob text format (line-oriented, strict parse, '\n' line ends):
//   phoebe_shard 4
//   shard <index> <count> days <num_days> arms <n> checksums <crc32 hex8> x n
//   day <d>
//     arm <k> jobs <m>                             # k = 0..n-1, in order
//       job <i> -                                  # ineligible (< 2 stages)
//       job <i> <objective> <global_bytes> <c>     # doubles as %.17g
//         cut <01-bitstring>                       # c lines, innermost-first
//       report <considered> <with_cut> <admitted> <storage> <total_tbs>
//              <realized> <threshold> <hits> <misses> <evictions>  # optional
//         outcome <i> <job_id> <admitted01> <global_bytes> <predicted> <realized>
//                                                  # m lines when report present
//     end_arm
//   end_day
//   ...
//   end_shard
//
// Every arm is the same kind of record. Each arm section carries its own job
// count: a scenario arm decides its own workload for the day. The optional
// `report` is the arm's finished FleetDayReport, replayed shard-side; it is
// only valid when the run is unbudgeted and cache-off (then each day is
// independent of every other day and of arrival-order cache state), and
// lets the merge concatenate reports instead of replaying each day. Outcome
// cut bitsets are not repeated: the parser reconstructs them from the arm's
// decision records, which RunDay copies them from verbatim. Blobs are in-run
// intermediates written and read by one binary, so only the current version
// parses.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"

namespace phoebe::core {

/// \brief Identity of one shard's blob: which slice of which run it holds.
struct FleetShardHeader {
  int shard_index = 0;  ///< 0-based shard id
  int shard_count = 1;  ///< total shards N
  int num_days = 0;     ///< days in the whole run (not per shard)
  /// PipelineBundle::checksum() of each arm's artifact, in arm order; its
  /// size is the run's arm count (>= 1).
  std::vector<uint32_t> arm_checksums;
};

/// \brief One arm's output for one day: its decide-phase decisions plus,
/// optionally, the report the shard replayed locally (outcome cut/cuts are
/// reconstructed from `decisions` at parse time).
struct ShardArmDay {
  FleetDayDecisions decisions;
  std::optional<FleetDayReport> report;
};

/// \brief A parsed shard blob: header + one ShardArmDay per arm for each day
/// the shard owns.
struct FleetShardBlob {
  FleetShardHeader header;
  /// day index -> one entry per arm, in arm order.
  std::map<int, std::vector<ShardArmDay>> days;
};

/// True iff shard `shard_index` of `shard_count` owns day `day`.
inline bool ShardOwnsDay(int day, int shard_index, int shard_count) {
  return day % shard_count == shard_index;
}

/// One job's decision record in the blob line format: the `job <i> ...`
/// line plus its `cut <bits>` lines (all newline-terminated), or `job <i> -`
/// for an ineligible slot. Shared with the serve protocol, whose decision
/// responses carry exactly this record — the two cross-process decision
/// formats cannot drift apart because they are the same bytes.
std::string SerializeJobDecisionRecord(size_t index,
                                       const std::optional<FleetDecision>& decision);

/// Strict parse of one job decision record occupying the whole string. The
/// record's job index must equal `expected_index`. `*out` untouched on
/// error.
Status ParseJobDecisionRecord(const std::string& text, size_t expected_index,
                              std::optional<FleetDecision>* out);

/// Serialize one shard's blob. `days` must hold only days the header's
/// shard owns in [0, num_days), each with exactly one entry per header arm;
/// an embedded report must cover its arm's decisions slot for slot. Callers
/// must only embed reports from unbudgeted, cache-off runs — the only
/// configuration where a day's report is independent of the other days.
Result<std::string> SerializeFleetShard(const FleetShardBlob& blob);

/// Strict parse of a shard blob (format version 4 only); any malformed line
/// is an error.
Result<FleetShardBlob> ParseFleetShard(const std::string& text);

/// Validate that `blobs` are the complete shard set of one run (headers
/// agree, indices 0..N-1 appear exactly once, every day is present in its
/// owner's blob and nowhere else) and merge them into one day -> per-arm map
/// covering [0, num_days). Every blob must carry exactly
/// `expected_arm_checksums.size()` arms, arm k decided under bundle
/// `expected_arm_checksums[k]`, so blobs from other artifacts or another
/// arm set are refused.
Result<std::map<int, std::vector<ShardArmDay>>> CombineFleetShards(
    const std::vector<FleetShardBlob>& blobs,
    const std::vector<uint32_t>& expected_arm_checksums);

/// Canonical single-line JSON rendering of a day report — the byte-compared
/// unit of the shard/merge determinism guarantee (doubles as %.17g, key order
/// fixed, per-job outcomes included). Ends without a newline.
std::string FleetDayReportJson(const FleetDayReport& report, int day);

}  // namespace phoebe::core
