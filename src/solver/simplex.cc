#include "solver/simplex.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/strings.h"

namespace phoebe::solver {

namespace {

/// A basic variable this far outside its bounds is primal infeasible.
constexpr double kPrimalTol = 1e-9;
/// Phase 1 declares the LP infeasible above this total bound violation.
constexpr double kPhaseOneTol = 1e-7;

}  // namespace

Simplex::Simplex(const Model& model, std::span<const std::pair<double, double>> bounds)
    : m_(static_cast<int>(model.num_constraints())),
      nv_(static_cast<int>(model.num_variables())),
      maximize_(model.maximize()) {
  PHOEBE_CHECK(bounds.size() == model.num_variables());
  n_ = nv_ + m_;
  const auto m = static_cast<size_t>(m_), n = static_cast<size_t>(n_);
  a_.assign(m * n, 0.0);
  rhs_.resize(m);
  xb_.resize(m);
  cost_.assign(n, 0.0);
  lo_.assign(n, 0.0);
  hi_.assign(n, kInfinity);
  basis_.resize(m);
  side_.assign(n, Side::kLower);
  for (size_t v = 0; v < bounds.size(); ++v) {
    lo_[v] = bounds[v].first;
    hi_[v] = bounds[v].second;
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model.constraints()[static_cast<size_t>(i)];
    const double sign = c.sense == Sense::kGe ? -1.0 : 1.0;
    double* row = Row(i);
    for (const auto& [var, coeff] : c.expr.terms) row[var] += sign * coeff;
    rhs_[static_cast<size_t>(i)] = sign * c.rhs;
    const int logical = nv_ + i;
    row[logical] = 1.0;
    if (c.sense == Sense::kEq) hi_[static_cast<size_t>(logical)] = 0.0;
    basis_[static_cast<size_t>(i)] = logical;
    side_[static_cast<size_t>(logical)] = Side::kBasic;
  }
  const double sign = maximize_ ? 1.0 : -1.0;
  for (const auto& [var, coeff] : model.objective().terms) {
    cost_[static_cast<size_t>(var)] += sign * coeff;
  }
  d_ = cost_;  // every basic variable is a logical, whose cost is 0
}

void Simplex::SetBounds(int var, double lo, double hi) {
  const auto j = static_cast<size_t>(var);
  lo_[j] = lo;
  hi_[j] = hi;
  if (side_[j] == Side::kUpper && !std::isfinite(hi)) side_[j] = Side::kLower;
}

double Simplex::NonbasicValue(int j) const {
  return side_[static_cast<size_t>(j)] == Side::kUpper ? hi_[static_cast<size_t>(j)]
                                                       : lo_[static_cast<size_t>(j)];
}

// x_B = B^-1 b - sum over nonbasic j of (B^-1 a_j) x_j, from scratch, so
// rounding in the incremental updates does not carry from node to node.
void Simplex::Refresh() {
  xb_ = rhs_;
  for (int j = 0; j < n_; ++j) {
    if (side_[static_cast<size_t>(j)] == Side::kBasic) continue;
    const double x = NonbasicValue(j);
    if (x == 0.0) continue;
    for (int i = 0; i < m_; ++i) xb_[static_cast<size_t>(i)] -= Row(i)[j] * x;
  }
}

void Simplex::PriceOut(const std::vector<double>& cost) {
  d_ = cost;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
    if (cb == 0.0) continue;
    const double* row = Row(i);
    for (int j = 0; j < n_; ++j) d_[static_cast<size_t>(j)] -= cb * row[j];
  }
  for (int b : basis_) d_[static_cast<size_t>(b)] = 0.0;
}

// Basis change only: the caller has already moved the values (xb_) and set
// the leaving variable's side.
void Simplex::Pivot(int row, int col) {
  double* pr = Row(row);
  const double inv = 1.0 / pr[col];
  nz_.clear();
  for (int j = 0; j < n_; ++j) {
    if (pr[j] == 0.0) continue;
    pr[j] *= inv;
    nz_.push_back(j);
  }
  pr[col] = 1.0;  // cancel rounding
  rhs_[static_cast<size_t>(row)] *= inv;
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* ri = Row(i);
    const double f = ri[col];
    if (f == 0.0) continue;
    for (int j : nz_) ri[j] -= f * pr[j];
    ri[col] = 0.0;
    rhs_[static_cast<size_t>(i)] -= f * rhs_[static_cast<size_t>(row)];
  }
  const double f = d_[static_cast<size_t>(col)];
  if (f != 0.0) {
    for (int j : nz_) d_[static_cast<size_t>(j)] -= f * pr[j];
    d_[static_cast<size_t>(col)] = 0.0;
  }
  basis_[static_cast<size_t>(row)] = col;
  side_[static_cast<size_t>(col)] = Side::kBasic;
}

bool Simplex::PrimalFeasible() const {
  for (int i = 0; i < m_; ++i) {
    const auto b = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    const double x = xb_[static_cast<size_t>(i)];
    if (x < lo_[b] - kPrimalTol || x > hi_[b] + kPrimalTol) return false;
  }
  return true;
}

bool Simplex::DualFeasible(double eps) const {
  for (size_t j = 0; j < static_cast<size_t>(n_); ++j) {
    if (side_[j] == Side::kBasic || lo_[j] == hi_[j]) continue;
    if (side_[j] == Side::kLower ? d_[j] > eps : d_[j] < -eps) return false;
  }
  return true;
}

// One primal simplex iteration on d_: the entering variable moves off its
// bound in the improving direction until a basic variable reaches a bound
// (pivot) or it reaches its own other bound first (flip, no pivot).
Simplex::Outcome Simplex::PrimalStep(const LpOptions& options, int64_t* stall) {
  const double eps = options.eps;
  if (pivots_ >= options.max_pivots) return Outcome::kPivotLimit;
  const bool bland = *stall > 2LL * (m_ + n_);

  int enter = -1;
  double best = eps;
  for (int j = 0; j < n_; ++j) {
    const auto sj = static_cast<size_t>(j);
    if (side_[sj] == Side::kBasic || lo_[sj] == hi_[sj]) continue;
    const double gain = side_[sj] == Side::kLower ? d_[sj] : -d_[sj];
    if (gain <= best) continue;
    enter = j;
    if (bland) break;
    best = gain;
  }
  if (enter < 0) return Outcome::kOptimal;

  const auto se = static_cast<size_t>(enter);
  const double dir = side_[se] == Side::kLower ? 1.0 : -1.0;
  // Basic variable i moves by -alpha * step, alpha = a_i,enter * dir.
  double step = hi_[se] - lo_[se];
  int leave = -1;
  bool leave_at_lower = false;
  double leave_alpha = 0.0;
  for (int i = 0; i < m_; ++i) {
    const double alpha = Row(i)[enter] * dir;
    const auto b = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    const double x = xb_[static_cast<size_t>(i)];
    double limit;
    if (alpha > eps && std::isfinite(lo_[b])) {
      limit = (x - lo_[b]) / alpha;
    } else if (alpha < -eps && std::isfinite(hi_[b])) {
      limit = (hi_[b] - x) / -alpha;
    } else {
      continue;
    }
    limit = std::max(limit, 0.0);
    const bool better =
        limit < step - eps ||
        (leave >= 0 && limit < step + eps &&
         (bland ? basis_[static_cast<size_t>(i)] < basis_[static_cast<size_t>(leave)]
                : std::abs(alpha) > std::abs(leave_alpha)));
    if (!better) continue;
    step = limit;
    leave = i;
    leave_at_lower = alpha > 0.0;
    leave_alpha = alpha;
  }
  if (leave < 0 && !std::isfinite(step)) return Outcome::kUnbounded;

  *stall = step < eps ? *stall + 1 : 0;
  ++pivots_;
  for (int i = 0; i < m_; ++i) {
    xb_[static_cast<size_t>(i)] -= Row(i)[enter] * dir * step;
  }
  if (leave < 0) {
    side_[se] = dir > 0 ? Side::kUpper : Side::kLower;
    return Outcome::kContinue;
  }
  const double entering_value = NonbasicValue(enter) + dir * step;
  side_[static_cast<size_t>(basis_[static_cast<size_t>(leave)])] =
      leave_at_lower ? Side::kLower : Side::kUpper;
  Pivot(leave, enter);
  xb_[static_cast<size_t>(leave)] = entering_value;
  return Outcome::kContinue;
}

Simplex::Outcome Simplex::Primal(const LpOptions& options) {
  int64_t stall = 0;
  Outcome outcome;
  while ((outcome = PrimalStep(options, &stall)) == Outcome::kContinue) {
  }
  return outcome;
}

// Dual simplex from a dual feasible basis: the most infeasible basic variable
// leaves at the bound it violates, and the dual ratio test picks the entering
// variable that keeps every reduced cost's sign.
Simplex::Outcome Simplex::Dual(const LpOptions& options) {
  const double eps = options.eps;
  int64_t stall = 0;
  while (true) {
    if (pivots_ >= options.max_pivots) return Outcome::kPivotLimit;
    const bool bland = stall > 2LL * (m_ + n_);

    int leave = -1;
    double worst = kPrimalTol;
    for (int i = 0; i < m_; ++i) {
      const auto b = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
      const double x = xb_[static_cast<size_t>(i)];
      const double v = std::max(lo_[b] - x, x - hi_[b]);
      if (v <= kPrimalTol) continue;
      if (bland ? leave < 0 || basis_[static_cast<size_t>(i)] <
                                   basis_[static_cast<size_t>(leave)]
                : v > worst) {
        leave = i;
        worst = v;
      }
    }
    if (leave < 0) return Outcome::kOptimal;

    const auto lb = static_cast<size_t>(basis_[static_cast<size_t>(leave)]);
    const bool to_lower = xb_[static_cast<size_t>(leave)] < lo_[lb];
    const double target = to_lower ? lo_[lb] : hi_[lb];
    // The basic variable moves by -alpha_j * delta_j: it must rise (to_lower)
    // or fall, and delta_j >= 0 at a lower bound, <= 0 at an upper one.
    const double* pr = Row(leave);
    int enter = -1;
    double best_ratio = kInfinity;
    for (int j = 0; j < n_; ++j) {
      const auto sj = static_cast<size_t>(j);
      if (side_[sj] == Side::kBasic || lo_[sj] == hi_[sj]) continue;
      const double alpha = pr[j];
      const double push = (side_[sj] == Side::kLower ? alpha : -alpha) * (to_lower ? -1.0 : 1.0);
      if (push <= eps) continue;
      const double ratio = std::abs(d_[sj]) / std::abs(alpha);
      const bool better =
          ratio < best_ratio - eps ||
          (enter >= 0 && ratio < best_ratio + eps && !bland &&
           std::abs(alpha) > std::abs(pr[enter]));
      if (!better) continue;
      enter = j;
      best_ratio = ratio;
    }
    if (enter < 0) return Outcome::kInfeasible;

    stall = best_ratio < eps ? stall + 1 : 0;
    ++pivots_;
    const double delta = (xb_[static_cast<size_t>(leave)] - target) / pr[enter];
    const double entering_value = NonbasicValue(enter) + delta;
    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<size_t>(i)] -= Row(i)[enter] * delta;
    }
    side_[lb] = to_lower ? Side::kLower : Side::kUpper;
    Pivot(leave, enter);
    xb_[static_cast<size_t>(leave)] = entering_value;
  }
}

// Phase 1 for a start that is neither primal nor dual feasible: each
// infeasible basic variable gets its violated bound relaxed to infinity, its
// other bound moved to the violated one, and a unit cost towards it. Primal
// steps then drive the relaxed variables into range; each one gets its real
// bounds and a zero cost back as soon as it reaches the bound it violated,
// so the search is free to move it further inside.
Simplex::Outcome Simplex::PhaseOne(const LpOptions& options) {
  struct Relaxed {
    int col;
    double lo, hi;
    bool below;  // was under its lower bound
  };
  std::vector<Relaxed> relaxed;
  std::vector<double> cost(static_cast<size_t>(n_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<size_t>(i)];
    const auto sb = static_cast<size_t>(b);
    const double x = xb_[static_cast<size_t>(i)];
    if (x < lo_[sb] - kPrimalTol) {
      relaxed.push_back({b, lo_[sb], hi_[sb], true});
      hi_[sb] = lo_[sb];
      lo_[sb] = -kInfinity;
      cost[sb] = 1.0;
    } else if (x > hi_[sb] + kPrimalTol) {
      relaxed.push_back({b, lo_[sb], hi_[sb], false});
      lo_[sb] = hi_[sb];
      hi_[sb] = kInfinity;
      cost[sb] = -1.0;
    }
  }
  PriceOut(cost);

  // Restores a relaxed variable's bounds and drops its cost from d_.
  auto release = [&](const Relaxed& r, int row) {
    const auto s = static_cast<size_t>(r.col);
    lo_[s] = r.lo;
    hi_[s] = r.hi;
    if (row < 0) {
      // It left the basis at its moved bound, which is the bound it violated.
      side_[s] = r.below ? Side::kLower : Side::kUpper;
      d_[s] -= cost[s];
    } else {
      const double* pr = Row(row);
      for (int j = 0; j < n_; ++j) d_[static_cast<size_t>(j)] += cost[s] * pr[j];
      d_[s] = 0.0;
    }
    cost[s] = 0.0;
  };
  auto row_of = [&](int col) {
    for (int i = 0; i < m_; ++i) {
      if (basis_[static_cast<size_t>(i)] == col) return i;
    }
    return -1;
  };

  int64_t stall = 0;
  Outcome outcome = Outcome::kContinue;
  while (outcome == Outcome::kContinue) {
    for (size_t k = 0; k < relaxed.size();) {
      const Relaxed& r = relaxed[k];
      const int row = row_of(r.col);
      const double x = row < 0 ? 0.0 : xb_[static_cast<size_t>(row)];
      if (row >= 0 && (r.below ? x < r.lo - kPrimalTol : x > r.hi + kPrimalTol)) {
        ++k;
        continue;
      }
      release(r, row);
      relaxed[k] = relaxed.back();
      relaxed.pop_back();
    }
    if (relaxed.empty()) break;
    outcome = PrimalStep(options, &stall);
  }
  double violation = 0.0;
  for (const Relaxed& r : relaxed) {
    const int row = row_of(r.col);
    const double x = row < 0 ? NonbasicValue(r.col) : xb_[static_cast<size_t>(row)];
    violation += std::max({0.0, r.lo - x, x - r.hi});
    release(r, row);
  }
  PriceOut(cost_);
  if (outcome == Outcome::kPivotLimit) return outcome;
  return violation > kPhaseOneTol ? Outcome::kInfeasible : Outcome::kOptimal;
}

Status Simplex::Solve(const LpOptions& options) {
  pivots_ = 0;
  for (int j = 0; j < nv_; ++j) {
    const auto s = static_cast<size_t>(j);
    if (lo_[s] > hi_[s] + 1e-12) return Status::Infeasible("contradictory bounds");
    if (!std::isfinite(lo_[s])) {
      return Status::InvalidArgument(StrFormat("variable %d needs a finite lower bound", j));
    }
  }
  Refresh();
  Outcome outcome = Outcome::kOptimal;
  if (!PrimalFeasible()) {
    outcome = DualFeasible(options.eps) ? Dual(options) : PhaseOne(options);
  }
  if (outcome == Outcome::kOptimal) outcome = Primal(options);
  switch (outcome) {
    case Outcome::kOptimal:
      return Status::OK();
    case Outcome::kInfeasible:
      return Status::Infeasible("no point satisfies every row and bound");
    case Outcome::kUnbounded:
      return Status::Unbounded("LP is unbounded");
    case Outcome::kPivotLimit:
    case Outcome::kContinue:
      break;
  }
  return Status::Internal(StrFormat("simplex pivot limit (%lld) reached",
                                    static_cast<long long>(options.max_pivots)));
}

double Simplex::objective() const {
  double obj = 0.0;
  for (int i = 0; i < m_; ++i) {
    const auto b = static_cast<size_t>(basis_[static_cast<size_t>(i)]);
    obj += cost_[b] * xb_[static_cast<size_t>(i)];
  }
  for (int j = 0; j < nv_; ++j) {
    if (side_[static_cast<size_t>(j)] != Side::kBasic) {
      obj += cost_[static_cast<size_t>(j)] * NonbasicValue(j);
    }
  }
  return maximize_ ? obj : -obj;
}

void Simplex::Values(std::vector<double>* out) const {
  out->resize(static_cast<size_t>(nv_));
  for (int j = 0; j < nv_; ++j) {
    if (side_[static_cast<size_t>(j)] != Side::kBasic) (*out)[static_cast<size_t>(j)] = NonbasicValue(j);
  }
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<size_t>(i)];
    if (b < nv_) (*out)[static_cast<size_t>(b)] = xb_[static_cast<size_t>(i)];
  }
}

Result<Solution> SolveLp(const Model& model, const LpOptions& options,
                         const std::vector<std::pair<double, double>>* bound_override) {
  PHOEBE_RETURN_NOT_OK(model.Validate());
  std::vector<std::pair<double, double>> bounds;
  if (bound_override) {
    PHOEBE_CHECK(bound_override->size() == model.num_variables());
    bounds = *bound_override;
  } else {
    for (const Variable& v : model.variables()) bounds.emplace_back(v.lo, v.hi);
  }
  Simplex lp(model, bounds);
  PHOEBE_RETURN_NOT_OK(lp.Solve(options));
  Solution sol;
  sol.objective = lp.objective();
  lp.Values(&sol.values);
  sol.pivots = lp.pivots();
  return sol;
}

}  // namespace phoebe::solver
