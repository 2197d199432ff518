// Dense bounded-variable simplex for LPs built with solver::Model.
//
// One engine serves SolveLp and every branch-and-bound node. Each row gets a
// logical (slack) column: `<=` rows are stored as they are, `>=` rows are
// negated into `<=` rows, so both logicals live in [0, inf); an `=` row's
// logical is fixed at [0, 0]. Variable bounds lo <= x <= hi are implicit: a
// nonbasic variable sits at one of its bounds, and the primal ratio test
// includes the entering variable's own bound flip, so no bound becomes a row.
//
// The start basis is all logicals with every variable at its lower bound. It
// is primal feasible whenever every row holds there (the checkpoint IPs:
// their `>=` rows have zero right-hand sides), and then no phase 1 runs.
// Otherwise, if the start is dual feasible the dual simplex repairs it, and
// if not, phase 1 relaxes only the violated bounds of the infeasible basic
// variables and maximizes towards them; no artificial columns exist.
//
// Solve() always starts from the basis the tableau holds. SetBounds moves a
// nonbasic variable with its bound and leaves reduced costs unchanged, so
// after a branch-and-bound bound change the parent's optimal basis is still
// dual feasible and Solve() re-optimizes it with a few dual simplex pivots.
// Dantzig pricing with a Bland's-rule fallback guards against cycling.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "solver/model.h"

namespace phoebe::solver {

/// \brief Limits for one LP solve.
struct LpOptions {
  int64_t max_pivots = 200000;
  double eps = 1e-9;
};

/// \brief A simplex tableau over one model's rows, solved in place.
///
/// Copyable: branch-and-bound saves a node's tableau to re-solve its second
/// child from.
class Simplex {
 public:
  /// Tableau of `model` (which must pass Model::Validate) under `bounds`,
  /// one (lo, hi) pair per model variable, at the all-logical basis.
  Simplex(const Model& model, std::span<const std::pair<double, double>> bounds);

  /// Replace one model variable's bounds, keeping the basis for the next Solve.
  void SetBounds(int var, double lo, double hi);
  /// Current bounds of a model variable.
  double lower(int var) const { return lo_[static_cast<size_t>(var)]; }
  double upper(int var) const { return hi_[static_cast<size_t>(var)]; }

  /// Optimize from the current basis. Returns Infeasible or Unbounded for those
  /// outcomes, InvalidArgument for a non-finite lower bound, and Internal when
  /// `options.max_pivots` is reached.
  Status Solve(const LpOptions& options);

  /// Objective of the current basic solution, in the model's sense.
  double objective() const;
  /// Values of the model variables at the current basic solution.
  void Values(std::vector<double>* out) const;
  /// Pivots (bound flips included) taken by the last Solve.
  int64_t pivots() const { return pivots_; }

 private:
  enum class Side : uint8_t { kBasic, kLower, kUpper };
  enum class Outcome { kOptimal, kUnbounded, kInfeasible, kPivotLimit, kContinue };

  double* Row(int i) { return &a_[static_cast<size_t>(i) * static_cast<size_t>(n_)]; }
  const double* Row(int i) const {
    return &a_[static_cast<size_t>(i) * static_cast<size_t>(n_)];
  }
  double NonbasicValue(int j) const;
  void Refresh();
  void PriceOut(const std::vector<double>& cost);
  void Pivot(int row, int col);
  bool PrimalFeasible() const;
  bool DualFeasible(double eps) const;
  Outcome PrimalStep(const LpOptions& options, int64_t* stall);
  Outcome Primal(const LpOptions& options);
  Outcome Dual(const LpOptions& options);
  Outcome PhaseOne(const LpOptions& options);

  int m_ = 0;   // rows
  int n_ = 0;   // columns: model variables, then one logical per row
  int nv_ = 0;  // model variables
  bool maximize_ = true;
  std::vector<double> a_;     // m x n, B^-1 [A I]
  std::vector<double> rhs_;   // B^-1 b
  std::vector<double> xb_;    // value of each row's basic variable
  std::vector<double> cost_;  // objective in maximization sense (logicals 0)
  std::vector<double> d_;     // reduced costs of the objective being optimized
  std::vector<double> lo_, hi_;
  std::vector<int> basis_;    // basic column of each row
  std::vector<Side> side_;    // per column
  std::vector<int> nz_;       // scratch: nonzero columns of the pivot row
  int64_t pivots_ = 0;
};

/// Solve the LP relaxation of `model` (integrality is ignored).
/// `bound_override`, if non-null, replaces the variable bounds; it must have
/// one (lo, hi) pair per variable.
///
/// Returns kInfeasible / kUnbounded statuses for those outcomes.
Result<Solution> SolveLp(const Model& model, const LpOptions& options = {},
                         const std::vector<std::pair<double, double>>* bound_override =
                             nullptr);

}  // namespace phoebe::solver
