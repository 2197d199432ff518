// Minimal deterministic property-based testing harness.
//
// A property is a predicate over a generated JobCase, expressed as a Status:
// OK means "holds" (or "case outside the property's precondition"), anything
// else is a violation whose message becomes the counterexample report. The
// runner draws `num_cases` cases from a seeded Rng; on the first failure it
// greedily shrinks the case (delete stages, then edges, re-checking that the
// property still fails) so the report shows a near-minimal reproducer, plus
// the per-case seed to replay the original.
#pragma once

#include <functional>
#include <string>

#include "common/status.h"
#include "testing/generators.h"

namespace phoebe::testing {

/// \brief Predicate under test. Return OK when the property holds on the
/// case; return a descriptive error when it is violated. Properties must
/// treat cases outside their precondition (e.g. too few stages) as OK —
/// the shrinker interprets any non-OK status as "still failing" — and
/// return VacuousCase() when the case could not be checked at all.
using Property = std::function<Status(const JobCase&)>;

/// Verdict for a case the property could not check — e.g. the exact solver
/// stopped before proving optimality, so there is no bound to compare
/// against. Never a failure, but counted in PropertyReport::vacuous_cases,
/// so a suite can assert that its passes actually checked something.
Status VacuousCase(const std::string& why);
/// True iff `st` came from VacuousCase.
bool IsVacuousCase(const Status& st);

/// \brief Runner configuration.
struct PropertyOptions {
  int num_cases = 200;
  uint64_t seed = 0xbe57;  ///< base seed; case i uses seed + i
  bool shrink = true;
  int max_shrink_steps = 2000;  ///< property re-evaluations the shrinker may spend
  GraphGenOptions graph;
  CostGenOptions costs;
};

/// Case-count multiplier from the PHOEBE_NUM_CASES environment variable
/// (read once per process). Unset, empty, non-numeric, or < 1 → 1. The
/// scheduled CI sweep sets PHOEBE_NUM_CASES=10 to run every property at 10×
/// depth under sanitizers without touching the tests.
int CaseCountMultiplier();

/// `base * CaseCountMultiplier()`, the case count CheckProperty actually
/// runs for `PropertyOptions::num_cases == base`. Tests asserting on
/// `PropertyReport::cases_run` should compare against this.
int ScaledCaseCount(int base);

/// \brief Outcome of a property run.
struct PropertyReport {
  bool ok = true;
  int cases_run = 0;
  int vacuous_cases = 0;      ///< cases the property returned VacuousCase for
  int failed_case = -1;       ///< index of the first failing case
  uint64_t failed_seed = 0;   ///< seed + failed_case; replays the original
  Status failure;             ///< property status on the (shrunk) counterexample
  JobCase counterexample;     ///< shrunk failing case (valid iff !ok)
  size_t original_stages = 0;
  size_t shrunk_stages = 0;

  /// Multi-line description: failure message, seeds, and the shrunk case.
  std::string Describe() const;
};

/// Run `prop` on `opt.num_cases` generated cases. Stops at the first failure.
PropertyReport CheckProperty(const PropertyOptions& opt, const Property& prop);

/// Greedy shrinker: repeatedly try deleting one stage (with its incident
/// edges; cost rows follow) or one edge, keeping any deletion under which
/// `prop` still fails (a vacuous verdict is not a failure), until a fixpoint or `max_steps` evaluations. Exposed
/// for the self-test; CheckProperty calls it automatically.
JobCase ShrinkCase(const JobCase& failing, const Property& prop, int max_steps);

/// Building blocks of the shrinker, also useful to write custom shrink loops:
/// a copy of `c` without stage `victim` (ids above shift down) / without the
/// `edge_index`-th edge.
JobCase RemoveStage(const JobCase& c, dag::StageId victim);
JobCase RemoveEdge(const JobCase& c, size_t edge_index);

}  // namespace phoebe::testing
