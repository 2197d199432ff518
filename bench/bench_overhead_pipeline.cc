// Section 6.4 overheads: per-job compile-time cost of Phoebe. Paper: metadata
// and model lookup ~15 ms, scoring + optimization ~1.09 s, against several
// minutes of end-to-end job compilation. This repo's in-process substrate has
// no service round-trips, so absolute numbers are far smaller; the breakdown
// (scoring dominates optimization) is the shape to compare. BM_ScoreOnly and
// BM_OptimizeOnly time the two halves of BM_DecideTempStorage's decision;
// the stats lookups happen inside featurization, so they are part of scoring.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

using namespace phoebe;

namespace {

bench::BenchEnv* Env() {
  static bench::BenchEnv env = bench::MakeEnv(40, 4, 1, /*seed=*/5);
  return &env;
}

const workload::JobInstance* BigJob() {
  const workload::JobInstance* big = nullptr;
  for (const auto& j : Env()->TestDay(0)) {
    if (!big || j.graph.num_stages() > big->graph.num_stages()) big = &j;
  }
  return big;
}

void BM_DecideTempStorage(benchmark::State& state) {
  const core::PhoebePipeline& phoebe = *Env()->phoebe;
  const auto* job = BigJob();
  for (auto _ : state) {
    auto d = phoebe.engine().DecideJob(*job, phoebe.inference_stats(), {});
    d.status().Check();
    benchmark::DoNotOptimize(d);
  }
  state.counters["stages"] = static_cast<double>(job->graph.num_stages());
}

void BM_DecideRecovery(benchmark::State& state) {
  const core::PhoebePipeline& phoebe = *Env()->phoebe;
  const auto* job = BigJob();
  for (auto _ : state) {
    auto d = phoebe.engine().DecideJob(*job, phoebe.inference_stats(),
                                       {core::Objective::kRecovery});
    d.status().Check();
    benchmark::DoNotOptimize(d);
  }
}

// Scoring: featurization (historic-stats lookups included), the exec / size
// models, the schedule simulation and the TTL stacker.
void BM_ScoreOnly(benchmark::State& state) {
  const core::PhoebePipeline& phoebe = *Env()->phoebe;
  const auto* job = BigJob();
  for (auto _ : state) {
    auto costs = phoebe.engine().BuildCosts(*job, core::CostSource::kMlStacked);
    costs.status().Check();
    benchmark::DoNotOptimize(costs);
  }
}

// Optimization: the single-cut sweep on prebuilt costs.
void BM_OptimizeOnly(benchmark::State& state) {
  const core::PhoebePipeline& phoebe = *Env()->phoebe;
  const auto* job = BigJob();
  auto costs = phoebe.engine().BuildCosts(*job, core::CostSource::kMlStacked);
  costs.status().Check();
  for (auto _ : state) {
    auto cut = core::OptimizeTempStorage(job->graph, *costs);
    cut.status().Check();
    benchmark::DoNotOptimize(cut);
  }
}

void BM_TrainPipeline(benchmark::State& state) {
  auto* env = Env();
  for (auto _ : state) {
    core::PhoebePipeline fresh;
    fresh.Train(env->repo, 0, env->train_days).Check();
    benchmark::DoNotOptimize(fresh);
  }
}

}  // namespace

BENCHMARK(BM_DecideTempStorage)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecideRecovery)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScoreOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptimizeOnly)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TrainPipeline)->Unit(benchmark::kMillisecond)->Iterations(2);

BENCHMARK_MAIN();
