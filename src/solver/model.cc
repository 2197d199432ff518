#include "solver/model.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/strings.h"

namespace phoebe::solver {

int Model::AddContinuous(double lo, double hi, std::string name) {
  variables_.push_back(Variable{std::move(name), lo, hi, false});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::AddInteger(double lo, double hi, std::string name) {
  variables_.push_back(Variable{std::move(name), lo, hi, true});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::AddBinary(std::string name) { return AddInteger(0.0, 1.0, std::move(name)); }

void Model::AddConstraint(LinearExpr expr, Sense sense, double rhs) {
  constraints_.push_back(Constraint{std::move(expr), sense, rhs});
}

void Model::SetObjective(LinearExpr expr, bool maximize) {
  objective_ = std::move(expr);
  maximize_ = maximize;
}

size_t Model::num_integer_variables() const {
  size_t n = 0;
  for (const Variable& v : variables_) n += v.integer ? 1 : 0;
  return n;
}

Status Model::Validate() const {
  auto check_expr = [this](const LinearExpr& e) -> Status {
    for (const auto& [var, coeff] : e.terms) {
      if (var < 0 || static_cast<size_t>(var) >= variables_.size()) {
        return Status::InvalidArgument(StrFormat("term references variable %d", var));
      }
      if (!std::isfinite(coeff)) {
        return Status::InvalidArgument("non-finite coefficient");
      }
    }
    return Status::OK();
  };
  for (size_t i = 0; i < variables_.size(); ++i) {
    const Variable& v = variables_[i];
    if (v.lo > v.hi) {
      return Status::InvalidArgument(StrFormat("variable %zu has lo > hi", i));
    }
    if (!std::isfinite(v.lo)) {
      return Status::InvalidArgument(
          StrFormat("variable %zu needs a finite lower bound", i));
    }
  }
  for (const Constraint& c : constraints_) {
    PHOEBE_RETURN_NOT_OK(check_expr(c.expr));
    if (!std::isfinite(c.rhs)) return Status::InvalidArgument("non-finite rhs");
  }
  return check_expr(objective_);
}

double Model::Evaluate(std::span<const double> x) const {
  PHOEBE_CHECK(x.size() == variables_.size());
  double value = 0.0;
  for (const auto& [var, coeff] : objective_.terms) value += coeff * x[static_cast<size_t>(var)];
  return value;
}

double Model::MaxViolation(std::span<const double> x) const {
  PHOEBE_CHECK(x.size() == variables_.size());
  double worst = 0.0;
  for (size_t i = 0; i < variables_.size(); ++i) {
    const Variable& v = variables_[i];
    worst = std::max({worst, v.lo - x[i], x[i] - v.hi});
    if (v.integer) worst = std::max(worst, std::abs(x[i] - std::round(x[i])));
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : c.expr.terms) lhs += coeff * x[static_cast<size_t>(var)];
    if (c.sense != Sense::kGe) worst = std::max(worst, lhs - c.rhs);
    if (c.sense != Sense::kLe) worst = std::max(worst, c.rhs - lhs);
  }
  return worst;
}

}  // namespace phoebe::solver
