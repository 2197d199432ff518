#include "core/simulator.h"

#include <algorithm>

#include "common/strings.h"

namespace phoebe::core {

Result<SimulatedSchedule> SimulateSchedule(const dag::JobGraph& graph,
                                           const std::vector<double>& exec_seconds) {
  SimulatorScratch scratch;
  SimulatedSchedule sched;
  PHOEBE_RETURN_NOT_OK(SimulateScheduleInto(graph, exec_seconds, &scratch, &sched));
  return sched;
}

Status SimulateScheduleInto(const dag::JobGraph& graph,
                            std::span<const double> exec_seconds,
                            SimulatorScratch* scratch, SimulatedSchedule* out) {
  if (exec_seconds.size() != graph.num_stages()) {
    return Status::InvalidArgument(
        StrFormat("exec_seconds has %zu entries for %zu stages", exec_seconds.size(),
                  graph.num_stages()));
  }
  PHOEBE_RETURN_NOT_OK(graph.TopologicalOrderInto(&scratch->topo, &scratch->order));

  out->start.assign(graph.num_stages(), 0.0);
  out->end.assign(graph.num_stages(), 0.0);
  out->job_end = 0.0;

  // Algorithm 1: D[s] = max over upstream P[u]; P[s] = D[s] + T[s].
  for (dag::StageId s : scratch->order) {
    const size_t si = static_cast<size_t>(s);
    double max_upstream_end = 0.0;
    for (dag::StageId up : graph.upstream(s)) {
      max_upstream_end = std::max(max_upstream_end, out->end[static_cast<size_t>(up)]);
    }
    out->start[si] = max_upstream_end;
    out->end[si] = max_upstream_end + std::max(0.0, exec_seconds[si]);
    out->job_end = std::max(out->job_end, out->end[si]);
  }
  return Status::OK();
}

}  // namespace phoebe::core
