// Job runtime simulator — Algorithm 1 of the paper.
//
// Given the execution graph and an estimated execution time per stage, the
// simulator assumes strict stage boundaries (a stage starts when all its
// upstream stages finish), walks stages in topological order, and produces
// estimated start/end times, from which TTL (time-to-live of each stage's
// output) and TFS (time from start) follow.
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "dag/job_graph.h"

namespace phoebe::core {

/// \brief Simulated schedule for one job.
struct SimulatedSchedule {
  std::vector<double> start;  ///< per stage
  std::vector<double> end;    ///< per stage
  double job_end = 0.0;

  /// TTL of stage u: job_end - end[u].
  double Ttl(dag::StageId u) const { return job_end - end[static_cast<size_t>(u)]; }
  /// TFS of stage u: start[u].
  double Tfs(dag::StageId u) const { return start[static_cast<size_t>(u)]; }
};

/// Run Algorithm 1. `exec_seconds` holds the estimated execution time of each
/// stage (one entry per StageId). Fails on cyclic graphs or size mismatch.
Result<SimulatedSchedule> SimulateSchedule(const dag::JobGraph& graph,
                                           const std::vector<double>& exec_seconds);

/// Reusable working storage for SimulateScheduleInto (the topological-order
/// traversal buffers). Warm scratch = allocation-free simulation.
struct SimulatorScratch {
  dag::JobGraph::TopoScratch topo;
  std::vector<dag::StageId> order;
};

/// Same simulation, writing into a caller-owned schedule whose vectors are
/// reused across calls (hot decide path; see core/engine.h DecideScratch).
/// Bit-identical to SimulateSchedule. `exec_seconds` may be a slice of a
/// longer buffer (the day-batched decide path simulates from one per-day
/// estimate array).
Status SimulateScheduleInto(const dag::JobGraph& graph,
                            std::span<const double> exec_seconds,
                            SimulatorScratch* scratch, SimulatedSchedule* out);

}  // namespace phoebe::core
