#include "testing/property.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace phoebe::testing {

namespace {

/// Copy a stage with its identity fields (id is reassigned by AddStage).
dag::Stage CloneStage(const dag::Stage& s) {
  dag::Stage out;
  out.name = s.name;
  out.operators = s.operators;
  out.stage_type = s.stage_type;
  out.num_tasks = s.num_tasks;
  return out;
}

/// Marks a VacuousCase status; no property failure message starts with it.
constexpr char kVacuousPrefix[] = "vacuous case: ";

/// A shrink candidate still fails iff the property reports a violation.
bool StillFails(const Property& prop, const JobCase& c) {
  const Status st = prop(c);
  return !st.ok() && !IsVacuousCase(st);
}

}  // namespace

Status VacuousCase(const std::string& why) {
  return Status::FailedPrecondition(kVacuousPrefix + why);
}

bool IsVacuousCase(const Status& st) {
  return st.code() == StatusCode::kFailedPrecondition &&
         st.message().rfind(kVacuousPrefix, 0) == 0;
}

JobCase RemoveStage(const JobCase& c, dag::StageId victim) {
  JobCase out;
  out.graph.set_name(c.graph.name());
  const size_t n = c.graph.num_stages();
  for (size_t u = 0; u < n; ++u) {
    if (static_cast<dag::StageId>(u) == victim) continue;
    out.graph.AddStage(CloneStage(c.graph.stage(static_cast<dag::StageId>(u))));
    out.costs.output_bytes.push_back(c.costs.output_bytes[u]);
    out.costs.ttl.push_back(c.costs.ttl[u]);
    out.costs.end_time.push_back(c.costs.end_time[u]);
    out.costs.tfs.push_back(c.costs.tfs[u]);
    out.costs.num_tasks.push_back(c.costs.num_tasks[u]);
  }
  auto shift = [victim](dag::StageId u) {
    return u > victim ? u - 1 : u;
  };
  for (const dag::Edge& e : c.graph.edges()) {
    if (e.from == victim || e.to == victim) continue;
    out.graph.AddEdge(shift(e.from), shift(e.to)).Check();
  }
  return out;
}

JobCase RemoveEdge(const JobCase& c, size_t edge_index) {
  JobCase out;
  out.graph.set_name(c.graph.name());
  out.costs = c.costs;
  for (const dag::Stage& s : c.graph.stages()) out.graph.AddStage(CloneStage(s));
  for (size_t i = 0; i < c.graph.edges().size(); ++i) {
    if (i == edge_index) continue;
    const dag::Edge& e = c.graph.edges()[i];
    out.graph.AddEdge(e.from, e.to).Check();
  }
  return out;
}

JobCase ShrinkCase(const JobCase& failing, const Property& prop, int max_steps) {
  JobCase best = failing;
  int steps = 0;
  bool improved = true;
  while (improved && steps < max_steps) {
    improved = false;
    // Pass 1: stage deletions (largest structural reduction first).
    for (size_t u = 0; u < best.graph.num_stages() && steps < max_steps; ++u) {
      if (best.graph.num_stages() <= 1) break;
      JobCase candidate = RemoveStage(best, static_cast<dag::StageId>(u));
      ++steps;
      if (StillFails(prop, candidate)) {
        best = std::move(candidate);
        improved = true;
        --u;  // same index now names the next stage
      }
    }
    // Pass 2: edge deletions.
    for (size_t e = 0; e < best.graph.num_edges() && steps < max_steps; ++e) {
      JobCase candidate = RemoveEdge(best, e);
      ++steps;
      if (StillFails(prop, candidate)) {
        best = std::move(candidate);
        improved = true;
        --e;
      }
    }
  }
  return best;
}

int CaseCountMultiplier() {
  static const int kMultiplier = [] {
    const char* env = std::getenv("PHOEBE_NUM_CASES");
    if (env == nullptr) return 1;
    int32_t value = 0;
    if (!ParseInt32(env, &value).ok() || value < 1) return 1;
    return static_cast<int>(value);
  }();
  return kMultiplier;
}

int ScaledCaseCount(int base) { return base * CaseCountMultiplier(); }

PropertyReport CheckProperty(const PropertyOptions& opt, const Property& prop) {
  PropertyReport report;
  const int num_cases = ScaledCaseCount(opt.num_cases);
  for (int i = 0; i < num_cases; ++i) {
    const uint64_t case_seed = opt.seed + static_cast<uint64_t>(i);
    Rng rng(case_seed);
    JobCase c = RandomJobCase(opt.graph, opt.costs, &rng);
    ++report.cases_run;
    Status st = prop(c);
    if (st.ok()) continue;
    if (IsVacuousCase(st)) {
      ++report.vacuous_cases;
      continue;
    }

    report.ok = false;
    report.failed_case = i;
    report.failed_seed = case_seed;
    report.original_stages = c.graph.num_stages();
    report.counterexample =
        opt.shrink ? ShrinkCase(c, prop, opt.max_shrink_steps) : c;
    report.shrunk_stages = report.counterexample.graph.num_stages();
    report.failure = prop(report.counterexample);
    if (report.failure.ok() || IsVacuousCase(report.failure)) {
      // Defensive: a flaky property (shrink invalidated the failure without
      // the shrinker noticing) — report the original status instead.
      report.failure = st;
      report.counterexample = std::move(c);
      report.shrunk_stages = report.original_stages;
    }
    return report;
  }
  return report;
}

std::string PropertyReport::Describe() const {
  if (ok) {
    return StrFormat("property held on %d cases (%d vacuous)", cases_run,
                     vacuous_cases);
  }
  return StrFormat(
      "property FAILED on case %d (seed %llu): %s\n"
      "counterexample shrunk from %zu to %zu stages:\n%s",
      failed_case, static_cast<unsigned long long>(failed_seed),
      failure.ToString().c_str(), original_stages, shrunk_stages,
      counterexample.ToText().c_str());
}

}  // namespace phoebe::testing
