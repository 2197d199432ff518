// Serve determinism: the headline guarantee of the decision daemon. A
// decision fetched over the socket must be BYTE-identical to calling
// DecisionEngine::DecideJob directly on the same bundle — for every worker
// count, batch size and metrics setting, for mixed batches that the worker
// splits into mini-days, and before, during, and after a hot reload.
// DecideJob is a pure function of (bundle, options, job, stats); the server
// adds queueing, batching, and threads, none of which may leak into a single
// byte of any response payload.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/bundle.h"
#include "core/engine.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "dag/job_graph.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/repository.h"
#include "testing/scratch_dir.h"
#include "workload/generator.h"

namespace phoebe::serve {
namespace {

struct Case {
  int job_index;
  core::DecideOptions options;
};

/// Train a small pipeline on days [0, train_days) of the seed-13 workload,
/// save it to `path`, and load it back as a served bundle would be.
std::shared_ptr<const core::PipelineBundle> TrainBundle(int train_days,
                                                        const std::string& path) {
  workload::WorkloadConfig wcfg;
  wcfg.num_templates = 8;
  wcfg.seed = 13;
  workload::WorkloadGenerator gen(wcfg);
  telemetry::WorkloadRepository repo;
  for (int d = 0; d < train_days; ++d) repo.AddDay(d, gen.GenerateDay(d)).Check();
  core::PipelineConfig cfg = core::PhoebePipeline::DefaultConfig();
  cfg.exec_predictor.gbdt.num_trees = 8;
  cfg.size_predictor.gbdt.num_trees = 8;
  cfg.ttl.gbdt.num_trees = 8;
  core::PhoebePipeline pipeline(cfg);
  pipeline.Train(repo, 0, train_days).Check();
  pipeline.SaveBundle(path).Check();
  auto loaded = core::PipelineBundle::LoadFromFile(path);
  loaded.status().Check();
  return *loaded;
}

class ServeDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scratch_ = new phoebe::testing::ScratchDir();
    bundle_path_ = new std::string(scratch_->File("serve_det.bundle"));
    bundle_ = new std::shared_ptr<const core::PipelineBundle>(
        TrainBundle(/*train_days=*/3, *bundle_path_));
    workload::WorkloadConfig wcfg;
    wcfg.num_templates = 8;
    wcfg.seed = 13;
    jobs_ = new std::vector<workload::JobInstance>(
        workload::WorkloadGenerator(wcfg).GenerateDay(3));

    // The cases cover both objectives, several cost sources, single- and
    // multi-cut, and (via the generator mix) ineligible sub-2-stage jobs if
    // any appear in the day.
    cases_ = new std::vector<Case>();
    for (int j = 0; j < 8 && j < static_cast<int>(jobs_->size()); ++j) {
      cases_->push_back({j, core::DecideOptions{}});
    }
    core::DecideOptions multi;
    multi.num_cuts = 2;
    cases_->push_back({0, multi});
    cases_->push_back({3, multi});
    core::DecideOptions recovery;
    recovery.objective = core::Objective::kRecovery;
    cases_->push_back({1, recovery});
    core::DecideOptions opt_est;
    opt_est.source = core::CostSource::kOptimizerEstimates;
    cases_->push_back({2, opt_est});

    // The ground truth: the exact payload bytes the server must produce,
    // computed with a direct (in-process, metrics-free) engine.
    expected_ = new std::vector<std::string>();
    core::DecisionEngine engine(*bundle_);
    for (const Case& c : *cases_) {
      const auto& job = (*jobs_)[static_cast<size_t>(c.job_index)];
      std::optional<core::FleetDecision> decision;
      if (job.graph.num_stages() >= 2) {
        auto r = engine.DecideJob(job, (*bundle_)->stats(), c.options);
        r.status().Check();
        decision = std::move(*r);
      }
      expected_->push_back(StrFormat("decision %08x\n", (*bundle_)->checksum()) +
                           core::SerializeJobDecisionRecord(0, decision));
    }
  }

  static void TearDownTestSuite() {
    delete expected_;
    delete cases_;
    delete jobs_;
    delete bundle_;
    delete bundle_path_;
    delete scratch_;
  }

  /// Run every case against a live server and require byte-identical
  /// payloads. Returns the client for follow-on use.
  static void ExpectServedBytesMatch(ServeServer& server, const std::string& label) {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    for (size_t i = 0; i < cases_->size(); ++i) {
      const Case& c = (*cases_)[i];
      std::string raw_payload;
      auto response = client.Decide((*jobs_)[static_cast<size_t>(c.job_index)],
                                    c.options, &raw_payload);
      ASSERT_TRUE(response.ok()) << label << ": " << response.status().ToString();
      EXPECT_EQ(raw_payload, (*expected_)[i])
          << label << ": case " << i << " (job " << c.job_index
          << ") served different bytes";
    }
  }

  static phoebe::testing::ScratchDir* scratch_;
  static std::string* bundle_path_;
  static std::shared_ptr<const core::PipelineBundle>* bundle_;
  static std::vector<workload::JobInstance>* jobs_;
  static std::vector<Case>* cases_;
  static std::vector<std::string>* expected_;
};

phoebe::testing::ScratchDir* ServeDeterminismTest::scratch_ = nullptr;
std::string* ServeDeterminismTest::bundle_path_ = nullptr;
std::shared_ptr<const core::PipelineBundle>* ServeDeterminismTest::bundle_ = nullptr;
std::vector<workload::JobInstance>* ServeDeterminismTest::jobs_ = nullptr;
std::vector<Case>* ServeDeterminismTest::cases_ = nullptr;
std::vector<std::string>* ServeDeterminismTest::expected_ = nullptr;

TEST_F(ServeDeterminismTest, SocketBytesMatchDirectEngineAcrossServerConfigs) {
  // worker count x batch size x metrics: 8 server configurations, one
  // expected byte string. None of these knobs may change a single byte.
  for (int workers : {1, 4}) {
    for (int max_batch : {1, 16}) {
      for (bool metrics : {false, true}) {
        obs::MetricsRegistry registry;
        ServeConfig cfg;
        cfg.num_workers = workers;
        cfg.max_batch = max_batch;
        cfg.bundle_path = *bundle_path_;
        cfg.metrics = metrics ? &registry : nullptr;
        ServeServer server(*bundle_, cfg);
        ASSERT_TRUE(server.Start().ok());
        ExpectServedBytesMatch(
            server, StrFormat("workers=%d max_batch=%d metrics=%d", workers, max_batch,
                              static_cast<int>(metrics)));
        server.Stop();
      }
    }
  }
}

TEST_F(ServeDeterminismTest, MixedPipelinedBatchesMatchPerRequestDecisions) {
  // One pipelined connection, one worker with max_batch 16: the requests
  // queue up behind each other, so the worker pops mixed batches and splits
  // them into mini-days of consecutive requests with equal options. The
  // stream mixes options, 1-stage (ineligible) jobs and a job whose decision
  // fails, and reloads a different bundle halfway: every request must answer
  // exactly what DecideJobInto returns on the bundle it pinned.
  const std::string path_b = scratch_->File("serve_det_b.bundle");
  const std::shared_ptr<const core::PipelineBundle> bundle_b =
      TrainBundle(/*train_days=*/2, path_b);
  ASSERT_NE(bundle_b->checksum(), (*bundle_)->checksum());

  const workload::JobInstance& wide = (*jobs_)[1];
  ASSERT_GE(wide.graph.num_stages(), 2u);
  workload::JobInstance one_stage = wide;  // ineligible: answered with no decision
  one_stage.graph = dag::JobGraph();
  one_stage.graph.set_name(wide.graph.name());
  one_stage.graph.AddStage(wide.graph.stage(0));
  one_stage.truth.resize(1);
  one_stage.est.resize(1);
  workload::JobInstance failing = wide;  // a negative true cost fails under kTruth
  failing.truth[0].output_bytes = -1.0;

  core::DecideOptions multi, recovery, ml_sim, truth;
  multi.num_cuts = 2;
  recovery.objective = core::Objective::kRecovery;
  ml_sim.source = core::CostSource::kMlSimulator;
  truth.source = core::CostSource::kTruth;
  const std::vector<core::DecideOptions> kinds = {core::DecideOptions{}, multi, recovery,
                                                  ml_sim, truth};
  struct Request {
    const workload::JobInstance* job;
    core::DecideOptions options;
  };
  std::vector<Request> requests;
  for (int r = 0; r < 12; ++r) {  // runs of 1-3 requests with equal options
    const core::DecideOptions& options = kinds[static_cast<size_t>(r) % kinds.size()];
    for (int k = 0; k <= r % 3; ++k) {
      requests.push_back({&(*jobs_)[static_cast<size_t>(r * 3 + k) % 8], options});
    }
    if (r % 4 == 1) requests.push_back({&one_stage, options});
    if (options == truth) requests.push_back({&failing, options});
  }
  const size_t reload_at = requests.size() / 2;

  // Expected frame per request id (1-based), from a direct engine over the
  // bundle the request pins: bundle A before the reload frame, B after.
  std::vector<Frame> expected;
  core::DecideScratch scratch;
  size_t failures = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& bundle = i < reload_at ? *bundle_ : bundle_b;
    const core::DecisionEngine engine(bundle);
    const Request& q = requests[i];
    Frame frame{FrameType::kDecision, i + 1, StrFormat("decision %08x\n", bundle->checksum())};
    if (q.job->graph.num_stages() < 2) {
      frame.payload += core::SerializeJobDecisionRecord(0, std::nullopt);
    } else {
      core::FleetDecision d;
      Status st = engine.DecideJobInto(*q.job, bundle->stats(), q.options, &scratch, &d);
      if (st.ok()) {
        frame.payload += core::SerializeJobDecisionRecord(0, d);
      } else {
        frame = Frame{FrameType::kError, i + 1, st.ToString()};
        ++failures;
      }
    }
    expected.push_back(std::move(frame));
  }
  ASSERT_EQ(failures, 2u);  // the two kTruth runs each carry the failing job

  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 16;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  const uint64_t reload_id = requests.size() + 1;
  std::string wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i == reload_at) {
      wire += EncodeFrame(Frame{FrameType::kReload, reload_id, "bundle " + path_b});
    }
    wire += EncodeFrame(Frame{FrameType::kDecide, i + 1,
                              SerializeDecideRequest(*requests[i].job, requests[i].options)});
  }
  ASSERT_TRUE(client.SendRaw(wire).ok());

  std::map<uint64_t, Frame> got;
  for (size_t i = 0; i <= requests.size(); ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_TRUE(got.emplace(frame->id, *frame).second) << "duplicate id " << frame->id;
  }
  ASSERT_EQ(got.count(reload_id), 1u);
  EXPECT_EQ(got[reload_id].type, FrameType::kOk);
  EXPECT_EQ(got[reload_id].payload, StrFormat("reloaded %08x", bundle_b->checksum()));
  for (const Frame& want : expected) {
    ASSERT_EQ(got.count(want.id), 1u) << "no response for id " << want.id;
    const Frame& frame = got[want.id];
    EXPECT_EQ(frame.type, want.type) << "id " << want.id;
    EXPECT_EQ(frame.payload, want.payload) << "id " << want.id;
  }
  server.Stop();
}

TEST_F(ServeDeterminismTest, ReloadOfSameArtifactChangesNoBytes) {
  ServeConfig cfg;
  cfg.num_workers = 4;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  const uint32_t checksum_before = server.bundle_checksum();

  ExpectServedBytesMatch(server, "before reload");

  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reloaded = client.Reload();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(*reloaded, checksum_before);
  EXPECT_EQ(server.reload_count(), 1);

  ExpectServedBytesMatch(server, "after reload");
  EXPECT_EQ(server.bundle_checksum(), checksum_before);
  server.Stop();
}

TEST_F(ServeDeterminismTest, RepeatedCallsAreIdempotent) {
  // The same request twice on one connection: byte-identical answers (no
  // hidden per-connection or per-worker state).
  ServeConfig cfg;
  cfg.bundle_path = *bundle_path_;
  ServeServer server(*bundle_, cfg);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string first, second;
  ASSERT_TRUE(client.Decide((*jobs_)[0], {}, &first).ok());
  ASSERT_TRUE(client.Decide((*jobs_)[0], {}, &second).ok());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, (*expected_)[0]);
  server.Stop();
}

}  // namespace
}  // namespace phoebe::serve
