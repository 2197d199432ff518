// Model-builder API for linear and mixed 0/1-integer programs.
//
// Phoebe's checkpoint IP formulations (Section 5 of the paper) are built
// against this interface and solved by the bundled simplex / branch-and-bound
// engine — the from-scratch replacement for OR-Tools + CBC.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace phoebe::solver {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kLe, kGe, kEq };

/// \brief Sparse linear expression: sum of coeff * var.
struct LinearExpr {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coefficient)

  LinearExpr& Add(int var, double coeff) {
    terms.emplace_back(var, coeff);
    return *this;
  }
};

/// \brief A variable with bounds; `integer` restricts it to whole values
/// within its bounds (use [0,1] bounds for binaries).
struct Variable {
  std::string name;
  double lo = 0.0;
  double hi = kInfinity;
  bool integer = false;
};

/// \brief One linear constraint: expr (sense) rhs.
struct Constraint {
  LinearExpr expr;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// \brief An optimization model: variables, constraints, linear objective.
class Model {
 public:
  /// Add a continuous variable; returns its index.
  int AddContinuous(double lo, double hi, std::string name = "");
  /// Add an integer variable; returns its index.
  int AddInteger(double lo, double hi, std::string name = "");
  /// Add a binary (0/1) variable; returns its index.
  int AddBinary(std::string name = "");

  void AddConstraint(LinearExpr expr, Sense sense, double rhs);

  /// Set the objective; `maximize` false means minimize.
  void SetObjective(LinearExpr expr, bool maximize);

  size_t num_variables() const { return variables_.size(); }
  size_t num_constraints() const { return constraints_.size(); }
  size_t num_integer_variables() const;

  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const LinearExpr& objective() const { return objective_; }
  bool maximize() const { return maximize_; }

  /// Structural sanity: indices in range, lo <= hi, finite rhs.
  Status Validate() const;

  /// Objective value of `x` (one value per variable).
  double Evaluate(std::span<const double> x) const;
  /// Largest amount by which `x` (one value per variable) violates a bound,
  /// a row, or an integrality requirement; 0 for a feasible point.
  double MaxViolation(std::span<const double> x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  LinearExpr objective_;
  bool maximize_ = true;
};

/// \brief Result of an LP or MILP solve.
struct Solution {
  double objective = 0.0;
  std::vector<double> values;  ///< one per variable
  int64_t nodes = 0;           ///< branch-and-bound nodes (0 for pure LP)
  int64_t pivots = 0;          ///< total simplex pivots
  bool optimal = true;         ///< false if a limit stopped the search early
};

}  // namespace phoebe::solver
