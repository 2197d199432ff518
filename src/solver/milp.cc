#include "solver/milp.h"

#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace phoebe::solver {

namespace {

/// Largest violation a start solution may have.
constexpr double kStartTol = 1e-7;

/// Index of the most fractional integer variable, or -1 if all integral.
int MostFractional(const Model& model, const std::vector<double>& x, double tol) {
  int best = -1;
  double best_dist = tol;
  for (size_t v = 0; v < model.num_variables(); ++v) {
    if (!model.variables()[v].integer) continue;
    double frac = x[v] - std::floor(x[v]);
    double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = static_cast<int>(v);
    }
  }
  return best;
}

}  // namespace

Result<Solution> SolveMilp(const Model& model, const MilpOptions& options,
                           std::span<const double> start) {
  PHOEBE_RETURN_NOT_OK(model.Validate());
  const auto clock_start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - clock_start)
        .count();
  };
  const double sign = model.maximize() ? 1.0 : -1.0;  // compare in max space

  std::vector<std::pair<double, double>> root_bounds;
  root_bounds.reserve(model.num_variables());
  for (const Variable& v : model.variables()) {
    // Integer bounds can be tightened to whole numbers up front.
    double lo = v.integer ? std::ceil(v.lo - options.int_tol) : v.lo;
    double hi = v.integer && std::isfinite(v.hi) ? std::floor(v.hi + options.int_tol) : v.hi;
    root_bounds.emplace_back(lo, hi);
  }

  bool have_incumbent = false;
  Solution incumbent;
  if (!start.empty()) {
    if (start.size() != model.num_variables()) {
      return Status::InvalidArgument("start solution needs one value per variable");
    }
    const double violation = model.MaxViolation(start);
    if (violation > kStartTol) {
      return Status::InvalidArgument(
          StrFormat("start solution violates the model by %g", violation));
    }
    incumbent.values.assign(start.begin(), start.end());
    incumbent.objective = model.Evaluate(start);
    have_incumbent = true;
  }
  auto pruned = [&](double bound) {
    return have_incumbent && sign * bound <= sign * incumbent.objective + options.gap_tol;
  };

  // Depth-first search. `lp` holds the node being solved; its first child
  // continues in `lp` itself, and the second is saved with a copy of the
  // parent's solved tableau to re-solve from when the first child's subtree
  // is done. `stack[0, depth)` are those saved children; entries beyond
  // `depth` keep their buffers for reuse.
  struct Pending {
    Simplex lp;
    int var;
    double lo, hi;        // the child's bounds on `var`
    double parent_bound;  // the parent's LP objective
  };
  std::vector<Pending> stack;
  size_t depth = 0;
  Simplex lp(model, root_bounds);
  bool have_node = true;  // the root
  std::vector<double> x;
  int64_t nodes = 0, pivots = 0;
  bool hit_limit = false;

  while (have_node || depth > 0) {
    if (nodes >= options.max_nodes || elapsed() > options.time_limit_seconds) {
      hit_limit = true;
      break;
    }
    ++nodes;
    if (!have_node) {
      Pending& next = stack[--depth];
      // Prune by parent bound before paying for the LP.
      if (pruned(next.parent_bound)) continue;
      std::swap(lp, next.lp);
      lp.SetBounds(next.var, next.lo, next.hi);
    }
    have_node = false;

    Status status = lp.Solve(options.lp);
    pivots += lp.pivots();
    if (!status.ok()) {
      if (status.IsInfeasible()) continue;  // dead branch
      return status;
    }
    const double objective = lp.objective();
    if (pruned(objective)) continue;

    lp.Values(&x);
    const int branch_var = MostFractional(model, x, options.int_tol);
    if (branch_var < 0) {
      // Integer feasible: snap and accept as the new incumbent.
      for (size_t v = 0; v < model.num_variables(); ++v) {
        if (model.variables()[v].integer) x[v] = std::round(x[v]);
      }
      incumbent.values = x;
      incumbent.objective = objective;
      have_incumbent = true;
      continue;
    }

    const double floor_hi = std::floor(x[static_cast<size_t>(branch_var)]);
    const double lo = lp.lower(branch_var), hi = lp.upper(branch_var);
    std::pair<double, double> first{lo, std::min(hi, floor_hi)};      // down
    std::pair<double, double> second{std::max(lo, floor_hi + 1.0), hi};  // up
    // The branch nearer the LP value is explored first.
    if (x[static_cast<size_t>(branch_var)] - floor_hi > 0.5) std::swap(first, second);
    if (depth == stack.size()) {
      stack.push_back(Pending{lp, branch_var, second.first, second.second, objective});
    } else {
      Pending& saved = stack[depth];
      saved.lp = lp;  // copy-assignment reuses the saved buffers
      saved.var = branch_var;
      saved.lo = second.first;
      saved.hi = second.second;
      saved.parent_bound = objective;
    }
    ++depth;
    lp.SetBounds(branch_var, first.first, first.second);
    have_node = true;
  }

  if (!have_incumbent) {
    if (hit_limit) {
      return Status::Internal(
          StrFormat("MILP limits reached after %lld nodes with no incumbent",
                    static_cast<long long>(nodes)));
    }
    return Status::Infeasible("no integer-feasible solution");
  }
  incumbent.nodes = nodes;
  incumbent.pivots = pivots;
  incumbent.optimal = !hit_limit;
  return incumbent;
}

}  // namespace phoebe::solver
