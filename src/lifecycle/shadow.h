// Shadow mode: "what would the new model have done" as a first-class
// artifact.
//
// When the lifecycle loop trains a candidate bundle, the candidate's
// would-be decisions for the day's jobs are computed through the same
// decide-phase code path a fleet shard runs (DecisionArm::DecideDay) and
// serialized as shard-blob job records (core/fleet_shard.h) — the exact
// bytes a shard process or the serve daemon would emit for the same job
// under that bundle. The diff against the incumbent's records is therefore
// a *byte* diff, not a semantic one: an identical candidate produces a
// zero-diff artifact (lifecycle_test pins this), and any divergence names
// the jobs whose cut, global bytes, or objective value would change under
// the rollover.
//
// Artifact text format (line-oriented, '\n' line ends):
//
//   phoebe_shadow_diff 1
//   day <d> jobs <m> incumbent <crc8> candidate <crc8> differing <k>
//   job <i> same                     # per job, arrival order
//   job <i> differs
//   - <incumbent record lines, "- " prefixed>
//   + <candidate record lines, "+ " prefixed>
//   end_shadow_diff
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.h"

namespace phoebe::lifecycle {

/// \brief Byte-diff of one day's decide-phase records under two bundles.
struct ShadowDayDiff {
  int day = 0;
  uint32_t incumbent_checksum = 0;
  uint32_t candidate_checksum = 0;
  int jobs = 0;       ///< job slots compared (arrival order)
  int differing = 0;  ///< slots whose serialized records differ by >= 1 byte
  std::vector<size_t> differing_jobs;  ///< their indices, ascending
  std::string text;   ///< the full artifact in the format above
};

/// Diff `candidate` against `incumbent` job by job. Both must hold the same
/// number of slots (the same day's jobs); a size mismatch is an error.
Result<ShadowDayDiff> DiffShadowDecisions(int day, uint32_t incumbent_checksum,
                                          uint32_t candidate_checksum,
                                          const core::FleetDayDecisions& incumbent,
                                          const core::FleetDayDecisions& candidate);

}  // namespace phoebe::lifecycle
