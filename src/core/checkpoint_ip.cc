#include "core/checkpoint_ip.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace phoebe::core {

namespace {

constexpr double kByteScale = 1e-9;          // bytes -> GB
constexpr double kTimeScale = 1.0 / 3600.0;  // seconds -> hours

/// Variable layout of the model: the z block first (binaries), then g, the d
/// block, and per cut its w block followed by t.
struct Layout {
  int ns, ne, nc;
  int z(int c, int u) const { return c * ns + u; }
  int g(int u) const { return nc * ns + u; }
  int d(int c, int e) const { return nc * ns + ns + c * ne + e; }
  int w(int c, int u) const { return nc * (ns + ne) + ns + c * (ns + 1) + u; }
  int t(int c) const { return w(c, ns); }
  int size() const { return t(nc - 1) + 1; }
};

Status CheckIpInputs(const dag::JobGraph& graph, const StageCosts& costs,
                     const IpOptions& options) {
  PHOEBE_RETURN_NOT_OK(costs.Validate(graph));
  if (options.num_cuts < 1) return Status::InvalidArgument("num_cuts must be >= 1");
  if (graph.num_stages() < 2) return Status::InvalidArgument("graph too small to cut");
  return Status::OK();
}

/// Scaled TTL of each stage, priced net of the finalization slack like the
/// sweep/DP heuristics (see FinalClearSlack).
std::vector<double> ScaledTtls(const StageCosts& costs) {
  const double slack = FinalClearSlack(costs);
  std::vector<double> t_u(costs.ttl.size());
  for (size_t u = 0; u < t_u.size(); ++u) {
    t_u[u] = std::max(0.0, costs.ttl[u] - slack) * kTimeScale;
  }
  return t_u;
}

/// The model's point for `cut` as the outermost cut with every inner cut
/// empty. An empty cut credits nothing and crosses no edge, so the point is
/// feasible for any cut budget. (Repeating the cut instead, z^1 = z^0, is
/// not: each crossing edge would be credited twice, against constraint (12).)
std::vector<double> CutPoint(const Layout& l, const dag::JobGraph& graph,
                             const std::vector<double>& t_u, const cluster::CutSet& cut) {
  std::vector<double> x(static_cast<size_t>(l.size()), 0.0);
  if (cut.empty()) return x;
  const int c = l.nc - 1;
  double t = solver::kInfinity;
  for (int u = 0; u < l.ns; ++u) {
    if (!cut.before_cut[static_cast<size_t>(u)]) continue;
    x[static_cast<size_t>(l.z(c, u))] = 1.0;
    t = std::min(t, t_u[static_cast<size_t>(u)]);
  }
  if (!std::isfinite(t)) return x;
  x[static_cast<size_t>(l.t(c))] = t;
  for (int u = 0; u < l.ns; ++u) {
    if (cut.before_cut[static_cast<size_t>(u)]) x[static_cast<size_t>(l.w(c, u))] = t;
  }
  for (int e = 0; e < l.ne; ++e) {
    const dag::Edge& edge = graph.edges()[static_cast<size_t>(e)];
    if (cut.before_cut[static_cast<size_t>(edge.from)] &&
        !cut.before_cut[static_cast<size_t>(edge.to)]) {
      x[static_cast<size_t>(l.d(c, e))] = 1.0;
      x[static_cast<size_t>(l.g(edge.from))] = 1.0;
    }
  }
  return x;
}

solver::Model BuildModel(const dag::JobGraph& graph, const StageCosts& costs,
                         const IpOptions& options, const Layout& l,
                         const std::vector<double>& t_u) {
  const int ns = l.ns, ne = l.ne, nc = l.nc;
  std::vector<double> o(static_cast<size_t>(ns));
  double max_ttl = 0.0;
  for (int u = 0; u < ns; ++u) {
    o[static_cast<size_t>(u)] = costs.output_bytes[static_cast<size_t>(u)] * kByteScale;
    max_ttl = std::max(max_ttl, t_u[static_cast<size_t>(u)]);
  }
  const double big_m = max_ttl + 1.0;

  solver::Model model;
  for (int c = 0; c < nc; ++c) {
    for (int u = 0; u < ns; ++u) model.AddBinary(StrFormat("z_%d_%d", c, u));
  }
  for (int u = 0; u < ns; ++u) model.AddContinuous(0.0, 1.0, StrFormat("g_%d", u));
  for (int c = 0; c < nc; ++c) {
    for (int e = 0; e < ne; ++e) model.AddContinuous(0.0, 1.0, StrFormat("d_%d_%d", c, e));
  }
  for (int c = 0; c < nc; ++c) {
    for (int u = 0; u < ns; ++u) {
      model.AddContinuous(0.0, big_m, StrFormat("w_%d_%d", c, u));
    }
    model.AddContinuous(0.0, big_m, StrFormat("t_%d", c));
  }
  PHOEBE_CHECK(static_cast<int>(model.num_variables()) == l.size());

  using solver::LinearExpr;
  using solver::Sense;

  // (11): d_uv^c - z_u^c + z_v^c >= 0.
  for (int c = 0; c < nc; ++c) {
    for (int e = 0; e < ne; ++e) {
      const dag::Edge& edge = graph.edges()[static_cast<size_t>(e)];
      LinearExpr ex;
      ex.Add(l.d(c, e), 1.0);
      ex.Add(l.z(c, edge.from), -1.0);
      ex.Add(l.z(c, edge.to), 1.0);
      model.AddConstraint(std::move(ex), Sense::kGe, 0.0);
    }
  }
  // (9): g_u >= d_uv^c for edges leaving u.
  for (int c = 0; c < nc; ++c) {
    for (int e = 0; e < ne; ++e) {
      const dag::Edge& edge = graph.edges()[static_cast<size_t>(e)];
      LinearExpr ex;
      ex.Add(l.g(edge.from), 1.0);
      ex.Add(l.d(c, e), -1.0);
      model.AddConstraint(std::move(ex), Sense::kGe, 0.0);
    }
  }
  // (12): sum_c d_uv^c <= 1.
  if (nc > 1) {
    for (int e = 0; e < ne; ++e) {
      LinearExpr ex;
      for (int c = 0; c < nc; ++c) ex.Add(l.d(c, e), 1.0);
      model.AddConstraint(std::move(ex), Sense::kLe, 1.0);
    }
  }
  // (10): z_u^{c-1} <= z_u^c.
  for (int c = 1; c < nc; ++c) {
    for (int u = 0; u < ns; ++u) {
      LinearExpr ex;
      ex.Add(l.z(c, u), 1.0);
      ex.Add(l.z(c - 1, u), -1.0);
      model.AddConstraint(std::move(ex), Sense::kGe, 0.0);
    }
  }
  // (24): w_u^c <= t^c + M (1 - dz_u^c), dz^c = z^c - z^{c-1} (z^{-1} = 0).
  // (25): w_u^c <= M dz_u^c.
  for (int c = 0; c < nc; ++c) {
    for (int u = 0; u < ns; ++u) {
      {
        LinearExpr ex;
        ex.Add(l.w(c, u), 1.0);
        ex.Add(l.t(c), -1.0);
        ex.Add(l.z(c, u), big_m);
        if (c > 0) ex.Add(l.z(c - 1, u), -big_m);
        model.AddConstraint(std::move(ex), Sense::kLe, big_m);
      }
      {
        LinearExpr ex;
        ex.Add(l.w(c, u), 1.0);
        ex.Add(l.z(c, u), -big_m);
        if (c > 0) ex.Add(l.z(c - 1, u), big_m);
        model.AddConstraint(std::move(ex), Sense::kLe, 0.0);
      }
      // (26): t^c <= t_u + M (1 - z_u^c).
      {
        LinearExpr ex;
        ex.Add(l.t(c), 1.0);
        ex.Add(l.z(c, u), big_m);
        model.AddConstraint(std::move(ex), Sense::kLe,
                            t_u[static_cast<size_t>(u)] + big_m);
      }
    }
  }

  // Objective: max sum_u o_u sum_c w_u^c - alpha sum_u o_u g_u.
  LinearExpr obj;
  for (int u = 0; u < ns; ++u) {
    for (int c = 0; c < nc; ++c) obj.Add(l.w(c, u), o[static_cast<size_t>(u)]);
    if (options.alpha > 0.0) {
      obj.Add(l.g(u), -options.alpha * o[static_cast<size_t>(u)]);
    }
  }
  model.SetObjective(std::move(obj), /*maximize=*/true);
  return model;
}

Layout MakeLayout(const dag::JobGraph& graph, const IpOptions& options) {
  return Layout{static_cast<int>(graph.num_stages()), static_cast<int>(graph.num_edges()),
                options.num_cuts};
}

}  // namespace

Result<solver::Model> BuildTempStorageModel(const dag::JobGraph& graph,
                                            const StageCosts& costs,
                                            const IpOptions& options) {
  PHOEBE_RETURN_NOT_OK(CheckIpInputs(graph, costs, options));
  return BuildModel(graph, costs, options, MakeLayout(graph, options), ScaledTtls(costs));
}

Result<IpResult> SolveTempStorageIp(const dag::JobGraph& graph, const StageCosts& costs,
                                    const IpOptions& options) {
  PHOEBE_RETURN_NOT_OK(CheckIpInputs(graph, costs, options));
  const Layout l = MakeLayout(graph, options);
  const int ns = l.ns, nc = l.nc;
  const std::vector<double> t_u = ScaledTtls(costs);
  const solver::Model model = BuildModel(graph, costs, options, l, t_u);

  // Start from the sweep's cut, which is feasible for any cut budget (inner
  // cuts left empty) and optimal for one cut at alpha = 0 (Prop. 5.1), so the
  // search only has to prove it.
  PHOEBE_ASSIGN_OR_RETURN(CutResult sweep, OptimizeTempStorage(graph, costs));
  const std::vector<double> start = CutPoint(l, graph, t_u, sweep.cut);
  PHOEBE_ASSIGN_OR_RETURN(solver::Solution sol,
                          solver::SolveMilp(model, options.milp, start));
  IpResult result;
  result.nodes = sol.nodes;
  result.pivots = sol.pivots;
  result.optimal = sol.optimal;
  result.objective = sol.objective / (kByteScale * kTimeScale);

  // Extract nested cut sets (skip empty/duplicate/full ones).
  std::vector<cluster::CutSet> raw;
  for (int c = 0; c < nc; ++c) {
    cluster::CutSet cut;
    cut.before_cut.assign(static_cast<size_t>(ns), false);
    int count = 0;
    for (int u = 0; u < ns; ++u) {
      if (sol.values[static_cast<size_t>(l.z(c, u))] > 0.5) {
        cut.before_cut[static_cast<size_t>(u)] = true;
        ++count;
      }
    }
    if (count == 0 || count == ns) continue;
    if (!raw.empty() && raw.back().before_cut == cut.before_cut) continue;
    raw.push_back(std::move(cut));
  }

  // Global bytes: each persisting stage counted once across cuts.
  std::vector<bool> persisted(static_cast<size_t>(ns), false);
  for (const cluster::CutSet& cut : raw) {
    for (dag::StageId u : cluster::CheckpointStages(graph, cut)) {
      persisted[static_cast<size_t>(u)] = true;
    }
  }
  for (int u = 0; u < ns; ++u) {
    if (persisted[static_cast<size_t>(u)]) {
      result.global_bytes += costs.output_bytes[static_cast<size_t>(u)];
    }
  }
  for (cluster::CutSet& cut : raw) {
    CutResult r;
    r.global_bytes = EstimateGlobalBytes(graph, costs, cut);
    r.cut = std::move(cut);
    result.cuts.push_back(std::move(r));
  }
  if (!result.cuts.empty()) result.cuts.front().objective = result.objective;
  return result;
}

}  // namespace phoebe::core
