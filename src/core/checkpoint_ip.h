// Exact integer-programming formulations of the checkpoint problem
// (paper §5.1/§5.2, equations (1)-(26)), solved with the bundled
// branch-and-bound engine. Used to validate the heuristic (they must agree
// for single cuts with alpha = 0) and for the Figure 10/11 benches.
//
// Notes on the encoding:
//  * z_u (stage before cut c) are binary; d_uv and g_u are relaxed to
//    continuous [0, 1] — with z integral, d_uv = max(0, z_u - z_v) and
//    g_u = max_v d_uv at any optimum that minimizes the alpha * G term, so
//    the relaxation is exact while shrinking the branch space.
//  * Bytes are scaled to GB and times to hours inside the model to keep the
//    simplex numerically comfortable; reported results are unscaled.
#pragma once

#include "core/checkpoint.h"
#include "solver/milp.h"

namespace phoebe::core {

/// \brief Options for an exact checkpoint solve.
struct IpOptions {
  int num_cuts = 1;       ///< K+1 cuts in paper terms is num_cuts here
  double alpha = 0.0;     ///< cost factor of global storage (per byte-second
                          ///< equivalent; applied in scaled units)
  solver::MilpOptions milp;
};

/// \brief Result of an exact checkpoint solve.
struct IpResult {
  std::vector<CutResult> cuts;  ///< outermost-first; empty if no cut pays off
  double objective = 0.0;       ///< byte-seconds (unscaled), net of alpha * G
  double global_bytes = 0.0;    ///< actual storage for the chosen cuts
  int64_t nodes = 0;
  int64_t pivots = 0;
  bool optimal = true;
};

/// Solve the temp-data-saving formulation (eq. (15)-(19), or (20)-(26) for
/// multiple cuts) exactly. The search starts from the sweep heuristic's cut
/// (OptimizeTempStorage) as its first incumbent.
Result<IpResult> SolveTempStorageIp(const dag::JobGraph& graph, const StageCosts& costs,
                                    const IpOptions& options = {});

/// The model SolveTempStorageIp solves (scaled units; `options.milp` unused).
/// Its first `num_cuts * num_stages` variables are the binaries z_u^c, cut
/// by cut.
Result<solver::Model> BuildTempStorageModel(const dag::JobGraph& graph,
                                            const StageCosts& costs,
                                            const IpOptions& options = {});

}  // namespace phoebe::core
