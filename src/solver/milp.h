// Branch-and-bound solver for mixed 0/1-integer programs on top of the
// simplex LP engine. Depth-first search with most-fractional branching, the
// child nearer the LP value first, and incumbent pruning. The tableau is
// built once; every child re-solves from its parent's optimal basis.
#pragma once

#include <span>

#include "common/status.h"
#include "solver/model.h"
#include "solver/simplex.h"

namespace phoebe::solver {

/// \brief Limits and tolerances for one MILP solve.
struct MilpOptions {
  int64_t max_nodes = 200000;
  double time_limit_seconds = 60.0;
  double int_tol = 1e-6;    ///< integrality tolerance
  double gap_tol = 1e-9;    ///< prune when bound <= incumbent + gap_tol
  LpOptions lp;
};

/// Solve `model` to optimality (within tolerances). Returns kInfeasible if no
/// integer-feasible point exists. If a limit stops the search with an
/// incumbent in hand, that incumbent is returned with `optimal == false`; if
/// no incumbent was found before the limit, Internal is returned.
///
/// `start`, if non-empty, is a known solution (one value per variable): it is
/// checked against every bound, row and integrality requirement
/// (InvalidArgument if it violates one by more than 1e-7) and becomes the
/// first incumbent, which the search then only has to beat.
Result<Solution> SolveMilp(const Model& model, const MilpOptions& options = {},
                           std::span<const double> start = {});

}  // namespace phoebe::solver
