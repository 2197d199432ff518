// Serve daemon concurrency tests: N client threads hammering one server
// while another thread hot-reloads the bundle. The contracts under test
// (and under TSan via run_checks.sh):
//   * zero dropped requests — every decide frame sent gets exactly one
//     response frame echoing its id, through queue backpressure, batching,
//     and reloads;
//   * zero mixed-bundle responses — reloading the SAME artifact mid-flight
//     must leave every response carrying the one true checksum, because each
//     request pins its bundle at enqueue;
//   * pipelined frames on one connection all come back, ids intact, even
//     when workers complete them out of order.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bundle.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/repository.h"
#include "testing/scratch_dir.h"
#include "workload/generator.h"

namespace phoebe::serve {
namespace {

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 8;
    wcfg.seed = 13;
    workload::WorkloadGenerator gen(wcfg);
    telemetry::WorkloadRepository repo;
    for (int d = 0; d < 3; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();
    core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 8;
    cfg.size_predictor.gbdt.num_trees = 8;
    cfg.ttl.gbdt.num_trees = 8;
    core::PhoebePipeline pipeline(cfg);
    pipeline.Train(repo, 0, 3).Check();

    scratch_ = new phoebe::testing::ScratchDir();
    bundle_path_ = new std::string(scratch_->File("serve_conc.bundle"));
    pipeline.SaveBundle(*bundle_path_).Check();
    auto loaded = core::PipelineBundle::LoadFromFile(*bundle_path_);
    loaded.status().Check();
    bundle_ = new std::shared_ptr<const core::PipelineBundle>(*loaded);
    jobs_ = new std::vector<workload::JobInstance>(gen.GenerateDay(3));
  }

  static void TearDownTestSuite() {
    delete jobs_;
    delete bundle_;
    delete bundle_path_;
    delete scratch_;
  }

  static phoebe::testing::ScratchDir* scratch_;
  static std::string* bundle_path_;
  static std::shared_ptr<const core::PipelineBundle>* bundle_;
  static std::vector<workload::JobInstance>* jobs_;
};

phoebe::testing::ScratchDir* ServeConcurrencyTest::scratch_ = nullptr;
std::string* ServeConcurrencyTest::bundle_path_ = nullptr;
std::shared_ptr<const core::PipelineBundle>* ServeConcurrencyTest::bundle_ = nullptr;
std::vector<workload::JobInstance>* ServeConcurrencyTest::jobs_ = nullptr;

TEST_F(ServeConcurrencyTest, ManyClientsWithInterleavedReloadsDropNothing) {
  obs::MetricsRegistry registry;
  ServeConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 4;
  cfg.queue_capacity = 8;  // small: readers must block on backpressure
  cfg.bundle_path = *bundle_path_;
  cfg.metrics = &registry;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  const uint32_t expected_checksum = server.bundle_checksum();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 30;
  std::atomic<int> responses{0};
  std::atomic<int> failures{0};
  std::atomic<int> wrong_checksum{0};
  std::atomic<bool> traffic_done{false};

  // Reload the same artifact in a tight loop while traffic flows: the swap
  // itself races every enqueue, but no response may ever show a different
  // checksum (same file -> same trained state -> one checksum).
  std::thread reloader([&] {
    while (!traffic_done.load(std::memory_order_acquire)) {
      auto checksum = server.Reload(*bundle_path_);
      ASSERT_TRUE(checksum.ok()) << checksum.status().ToString();
      EXPECT_EQ(*checksum, expected_checksum);
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port()).ok());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto& job = (*jobs_)[static_cast<size_t>((c * 7 + r) %
                                                       static_cast<int>(jobs_->size()))];
        core::DecideOptions options;
        options.num_cuts = 1 + (r % 2);  // mix single- and multi-cut
        auto response = client.Decide(job, options);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        responses.fetch_add(1);
        if (response->bundle_checksum != expected_checksum) wrong_checksum.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  traffic_done.store(true, std::memory_order_release);
  reloader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(responses.load(), kClients * kRequestsPerClient);  // zero dropped
  EXPECT_EQ(wrong_checksum.load(), 0);                         // zero mixed-bundle
  EXPECT_GE(server.reload_count(), 1);

  server.Stop();
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.requests"),
            static_cast<int64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(snapshot.counters.at("serve.errors"), 0);
  EXPECT_EQ(snapshot.counters.at("serve.connections"),
            static_cast<int64_t>(kClients));
  EXPECT_GE(snapshot.counters.at("serve.reloads"), 1);
  EXPECT_EQ(snapshot.histograms.at("serve.request.seconds").count,
            static_cast<int64_t>(kClients * kRequestsPerClient));
}

TEST_F(ServeConcurrencyTest, PipelinedRequestsAllAnswerWithMatchingIds) {
  ServeConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 8;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());

  // Fire a burst of decide frames without reading a single response — the
  // multi-worker server may answer out of order; every id must come back
  // exactly once.
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  constexpr uint64_t kBurst = 24;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    const auto& job =
        (*jobs_)[static_cast<size_t>(id) % jobs_->size()];
    ASSERT_TRUE(client
                    .SendFrame(Frame{FrameType::kDecide, id,
                                     SerializeDecideRequest(job, {})})
                    .ok());
  }
  std::map<uint64_t, int> seen;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kDecision);
    seen[frame->id] += 1;
  }
  ASSERT_EQ(seen.size(), kBurst);
  for (uint64_t id = 1; id <= kBurst; ++id) {
    EXPECT_EQ(seen[id], 1) << "id " << id;
  }
  server.Stop();
}

TEST_F(ServeConcurrencyTest, TinyQueueBackpressureStillAnswersEverything) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;  // the reader thread must block, not drop
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  constexpr uint64_t kBurst = 20;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(client
                    .SendFrame(Frame{FrameType::kDecide, id,
                                     SerializeDecideRequest((*jobs_)[0], {})})
                    .ok());
  }
  std::map<uint64_t, int> seen;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    seen[frame->id] += 1;
  }
  EXPECT_EQ(seen.size(), kBurst);
  server.Stop();
}

TEST_F(ServeConcurrencyTest, ConcurrentShutdownAfterTrafficIsClean) {
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port()).ok());
      for (int r = 0; r < 5; ++r) {
        auto response = client.Decide((*jobs_)[static_cast<size_t>(r)], {});
        EXPECT_TRUE(response.ok()) << response.status().ToString();
      }
      EXPECT_TRUE(client.Ping().ok());
    });
  }
  for (auto& t : clients) t.join();

  ServeClient closer;
  ASSERT_TRUE(closer.Connect(server.port()).ok());
  ASSERT_TRUE(closer.RequestShutdown().ok());
  EXPECT_TRUE(server.WaitForShutdown(10.0));
  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace phoebe::serve
