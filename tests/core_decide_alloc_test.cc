// Allocation-count gate for the zero-alloc decide path: with a warm
// per-worker DecideScratch arena and a reused FleetDecision, steady-state
// DecideJobInto/DecideInto — and the batched DecideJobsInto on the same
// arena type — must perform ZERO heap allocations, for every cost source and
// both objectives. The gate counts through replacement
// global operator new/delete, so any hidden vector growth, string build, or
// temporary map on the hot path fails loudly here instead of showing up as
// allocator contention in the fleet driver.
//
// Under ASan/TSan/MSan the sanitizer runtime owns the allocator and the
// count is not meaningful; the test still exercises the code paths but the
// zero assertion is skipped (the plain Debug/Release CI legs enforce it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/engine.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHOEBE_ALLOC_GATE_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PHOEBE_ALLOC_GATE_ACTIVE 0
#else
#define PHOEBE_ALLOC_GATE_ACTIVE 1
#endif
#else
#define PHOEBE_ALLOC_GATE_ACTIVE 1
#endif

namespace {
std::atomic<long long> g_heap_allocs{0};
}  // namespace

#if PHOEBE_ALLOC_GATE_ACTIVE
// Counting replacements for the global allocation functions. Deletes free
// without counting — the gate is about allocation churn, and mixed
// new/delete pairs across TU boundaries all land on malloc/free here.
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (::posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif  // PHOEBE_ALLOC_GATE_ACTIVE

namespace phoebe::core {
namespace {

class DecideAllocGateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 8;
    wcfg.seed = 21;
    workload::WorkloadGenerator gen(wcfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 3; ++d) repo_->AddDay(d, gen.GenerateDay(d)).Check();
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 12;
    cfg.size_predictor.gbdt.num_trees = 12;
    cfg.ttl.gbdt.num_trees = 12;
    pipeline_ = new PhoebePipeline(cfg);
    pipeline_->Train(*repo_, 0, 2).Check();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete repo_;
  }

  /// Jobs eligible for a decision (>= 2 stages), a handful is plenty.
  static std::vector<const workload::JobInstance*> EligibleJobs(size_t limit) {
    std::vector<const workload::JobInstance*> out;
    for (const auto& job : repo_->Day(2)) {
      if (job.graph.num_stages() >= 2) out.push_back(&job);
      if (out.size() == limit) break;
    }
    return out;
  }

  /// Allocations performed by `iters` steady-state calls of `fn` after two
  /// warmup calls. `fn` must reuse the same scratch + output objects.
  template <typename Fn>
  static long long SteadyStateAllocs(int iters, Fn&& fn) {
    fn();
    fn();  // warm: arena + output sized by this exact call
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < iters; ++i) fn();
    return g_heap_allocs.load(std::memory_order_relaxed) - before;
  }

  static telemetry::WorkloadRepository* repo_;
  static PhoebePipeline* pipeline_;
};

telemetry::WorkloadRepository* DecideAllocGateTest::repo_ = nullptr;
PhoebePipeline* DecideAllocGateTest::pipeline_ = nullptr;

constexpr CostSource kAllSources[] = {
    CostSource::kTruth, CostSource::kOptimizerEstimates, CostSource::kConstant,
    CostSource::kMlSimulator, CostSource::kMlStacked};

TEST_F(DecideAllocGateTest, DecideJobIntoIsAllocFreeWhenWarm) {
  const DecisionEngine& engine = pipeline_->engine();
  auto stats = repo_->StatsBefore(2);
  auto jobs = EligibleJobs(4);
  ASSERT_FALSE(jobs.empty());
  DecideScratch scratch;
  FleetDecision out;
  for (CostSource source : kAllSources) {
    for (Objective objective : {Objective::kTempStorage, Objective::kRecovery}) {
      DecideOptions options;
      options.objective = objective;
      options.source = source;
      for (const workload::JobInstance* job : jobs) {
        const long long allocs = SteadyStateAllocs(25, [&] {
          Status st = engine.DecideJobInto(*job, stats, options, &scratch, &out);
          ASSERT_TRUE(st.ok()) << st.ToString();
        });
#if PHOEBE_ALLOC_GATE_ACTIVE
        EXPECT_EQ(allocs, 0)
            << "source=" << CostSourceToken(source)
            << " objective=" << static_cast<int>(objective) << " job "
            << job->job_id << ": steady-state DecideJobInto allocated";
#else
        (void)allocs;
#endif
      }
    }
  }
}

TEST_F(DecideAllocGateTest, DecideIntoIsAllocFreeWhenWarm) {
  const DecisionEngine& engine = pipeline_->engine();
  auto jobs = EligibleJobs(2);
  ASSERT_FALSE(jobs.empty());
  DecideScratch scratch;
  PipelineDecision out;
  for (CostSource source : kAllSources) {
    for (const workload::JobInstance* job : jobs) {
      const long long allocs = SteadyStateAllocs(25, [&] {
        Status st =
            engine.DecideInto(*job, Objective::kTempStorage, source, &scratch, &out);
        ASSERT_TRUE(st.ok()) << st.ToString();
      });
#if PHOEBE_ALLOC_GATE_ACTIVE
      EXPECT_EQ(allocs, 0) << "source=" << CostSourceToken(source) << " job "
                           << job->job_id << ": steady-state DecideInto allocated";
#else
      (void)allocs;
#endif
    }
  }
}

TEST_F(DecideAllocGateTest, DayPathIsAllocFreeWhenWarm) {
  // The batched path on a warm DecideScratch with reused slots: its
  // featurize / bucket / PredictRowsInto phases, the per-job simulations and
  // the optimizer tail allocate nothing — nor does a one-job DecideJobInto
  // on the same arena between day calls.
  const DecisionEngine& engine = pipeline_->engine();
  auto stats = repo_->StatsBefore(2);
  auto jobs = EligibleJobs(32);
  ASSERT_GT(jobs.size(), 1u);
  DecideScratch scratch;
  std::vector<JobDecision> slots(jobs.size());
  FleetDecision single;
  for (CostSource source : kAllSources) {
    for (Objective objective : {Objective::kTempStorage, Objective::kRecovery}) {
      DecideOptions options;
      options.objective = objective;
      options.source = source;
      const long long allocs = SteadyStateAllocs(10, [&] {
        engine.DecideJobsInto(jobs, stats, options, &scratch, slots);
        for (const JobDecision& slot : slots) ASSERT_TRUE(slot.status.ok());
        ASSERT_TRUE(
            engine.DecideJobInto(*jobs.back(), stats, options, &scratch, &single).ok());
      });
#if PHOEBE_ALLOC_GATE_ACTIVE
      EXPECT_EQ(allocs, 0) << "source=" << CostSourceToken(source)
                           << " objective=" << static_cast<int>(objective)
                           << ": steady-state DecideJobsInto allocated";
#else
      (void)allocs;
#endif
    }
  }
}

TEST_F(DecideAllocGateTest, CounterSeesOrdinaryAllocations) {
  // Self-test: the replacement operator new is actually in effect (a silent
  // fallback to the default allocator would make the zero gates vacuous).
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  auto* sink = new std::vector<double>(1024, 0.5);
  const long long after = g_heap_allocs.load(std::memory_order_relaxed);
  delete sink;
#if PHOEBE_ALLOC_GATE_ACTIVE
  EXPECT_GE(after - before, 2);  // the vector object + its element storage
#else
  (void)before;
  (void)after;
#endif
}

}  // namespace
}  // namespace phoebe::core
