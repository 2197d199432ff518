// Figure 10: optimizer runtime — the Proposition-5.1 heuristic vs the exact
// IP with 1..3 cuts, over growing graph sizes. Paper: the IP is about two
// orders of magnitude slower than the heuristic, and grows with the number
// of cuts; the heuristic runs at interactive speed.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/checkpoint_ip.h"
#include "core/simulator.h"

using namespace phoebe;

namespace {

struct Instance {
  dag::JobGraph graph;
  core::StageCosts costs;
};

Instance MakeInstance(int n, uint64_t seed) {
  Rng rng(seed);
  Instance t;
  for (int i = 0; i < n; ++i) {
    dag::Stage s;
    s.name = "s" + std::to_string(i);
    s.operators = {dag::OperatorKind::kFilter};
    s.num_tasks = static_cast<int>(rng.UniformInt(1, 100));
    t.graph.AddStage(std::move(s));
  }
  for (int v = 1; v < n; ++v) {
    int k = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < k; ++j) {
      (void)t.graph.AddEdge(static_cast<dag::StageId>(rng.UniformInt(0, v - 1)),
                            static_cast<dag::StageId>(v));
    }
  }
  std::vector<double> exec(static_cast<size_t>(n));
  for (double& e : exec) e = rng.Uniform(30.0, 1800.0);
  auto sim = core::SimulateSchedule(t.graph, exec);
  sim.status().Check();
  t.costs.end_time = sim->end;
  t.costs.tfs = sim->start;
  t.costs.ttl.resize(static_cast<size_t>(n));
  t.costs.output_bytes.resize(static_cast<size_t>(n));
  t.costs.num_tasks.resize(static_cast<size_t>(n));
  for (int u = 0; u < n; ++u) {
    t.costs.ttl[static_cast<size_t>(u)] = sim->Ttl(static_cast<dag::StageId>(u));
    t.costs.output_bytes[static_cast<size_t>(u)] = rng.Uniform(0.5, 50.0) * 1e9;
    t.costs.num_tasks[static_cast<size_t>(u)] = t.graph.stage(u).num_tasks;
  }
  return t;
}

void BM_Heuristic(benchmark::State& state) {
  Instance t = MakeInstance(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    auto r = core::OptimizeTempStorage(t.graph, t.costs);
    benchmark::DoNotOptimize(r);
  }
}

void BM_HeuristicMultiCut(benchmark::State& state) {
  Instance t = MakeInstance(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    auto r = core::OptimizeTempStorageMultiCut(t.graph, t.costs,
                                               static_cast<int>(state.range(1)));
    benchmark::DoNotOptimize(r);
  }
}

void BM_Ip(benchmark::State& state) {
  Instance t = MakeInstance(static_cast<int>(state.range(0)), 42);
  core::IpOptions opt;
  opt.num_cuts = static_cast<int>(state.range(1));
  opt.milp.time_limit_seconds = 120.0;
  opt.milp.max_nodes = 20'000'000;
  int64_t nodes = 0;
  bool optimal = false;
  for (auto _ : state) {
    auto r = core::SolveTempStorageIp(t.graph, t.costs, opt);
    r.status().Check();
    nodes = r->nodes;
    optimal = r->optimal;
    benchmark::DoNotOptimize(r);
  }
  state.counters["bnb_nodes"] = static_cast<double>(nodes);
  // 0 when a limit stopped the search: the time is then not a solve time.
  state.counters["optimal"] = optimal ? 1.0 : 0.0;
}

}  // namespace

BENCHMARK(BM_Heuristic)->Arg(8)->Arg(12)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HeuristicMultiCut)
    ->Args({16, 1})->Args({16, 2})->Args({16, 3})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Ip)
    ->Args({8, 1})->Args({8, 2})->Args({8, 3})
    ->Args({12, 1})->Args({12, 2})
    ->Args({16, 1})->Args({16, 2})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();
