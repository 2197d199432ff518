// Tests for the PipelineBundle artifact: save -> load -> decide must be
// bit-identical to deciding with the in-memory pipeline, for every model
// kind; the checksum must name the trained state; and the loader must reject
// corrupted files with clean errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/bundle.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "telemetry/repository.h"
#include "workload/generator.h"

namespace phoebe::core {
namespace {

/// Small deterministic workload shared by all bundle tests.
class BundleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadConfig cfg;
    cfg.num_templates = 12;
    cfg.seed = 91;
    gen_ = new workload::WorkloadGenerator(cfg);
    repo_ = new telemetry::WorkloadRepository();
    for (int d = 0; d < 4; ++d) repo_->AddDay(d, gen_->GenerateDay(d)).Check();
  }
  static void TearDownTestSuite() {
    delete repo_;
    delete gen_;
  }

  /// Tiny config (few trees) so per-kind training stays fast.
  static PipelineConfig SmallConfig(ModelKind kind) {
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.kind = kind;
    cfg.exec_predictor.gbdt.num_trees = 12;
    cfg.exec_predictor.mlp.hidden = {8};
    cfg.size_predictor = cfg.exec_predictor;
    cfg.size_predictor.gbdt.seed = 1043;
    cfg.ttl.gbdt.num_trees = 12;
    return cfg;
  }

  static PhoebePipeline TrainSmall(ModelKind kind) {
    PhoebePipeline p(SmallConfig(kind));
    p.Train(*repo_, 0, 3).Check();
    return p;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static workload::WorkloadGenerator* gen_;
  static telemetry::WorkloadRepository* repo_;
};

workload::WorkloadGenerator* BundleFixture::gen_ = nullptr;
telemetry::WorkloadRepository* BundleFixture::repo_ = nullptr;

/// Every decision input and output compared bit-exactly between two engines
/// over the held-out day, for every cost source.
void ExpectBitIdenticalDecisions(const DecisionEngine& a, const DecisionEngine& b,
                                 const std::vector<workload::JobInstance>& jobs,
                                 const telemetry::HistoricStats& stats) {
  const std::vector<CostSource> sources = {
      CostSource::kTruth, CostSource::kOptimizerEstimates, CostSource::kConstant,
      CostSource::kMlSimulator, CostSource::kMlStacked};
  for (const workload::JobInstance& job : jobs) {
    if (job.graph.num_stages() < 2) continue;
    for (CostSource src : sources) {
      auto ca = a.BuildCosts(job, src, stats);
      auto cb = b.BuildCosts(job, src, stats);
      ASSERT_TRUE(ca.ok()) << ca.status().ToString();
      ASSERT_TRUE(cb.ok()) << cb.status().ToString();
      EXPECT_EQ(ca->output_bytes, cb->output_bytes);
      EXPECT_EQ(ca->ttl, cb->ttl);
      EXPECT_EQ(ca->end_time, cb->end_time);
      EXPECT_EQ(ca->tfs, cb->tfs);
      EXPECT_EQ(ca->job_end, cb->job_end);
      DecideOptions opt;
      opt.source = src;
      auto da = a.DecideJob(job, stats, opt);
      auto db = b.DecideJob(job, stats, opt);
      ASSERT_TRUE(da.ok()) << da.status().ToString();
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ(da->combined.cut.before_cut, db->combined.cut.before_cut);
      EXPECT_EQ(da->combined.objective, db->combined.objective);
      EXPECT_EQ(da->combined.global_bytes, db->combined.global_bytes);
    }
  }
}

TEST_F(BundleFixture, SaveLoadBitIdenticalForEveryModelKind) {
  for (ModelKind kind : {ModelKind::kGbdtPerStageType, ModelKind::kGbdtGeneral,
                         ModelKind::kMlpGeneral}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PhoebePipeline trained = TrainSmall(kind);
    const std::string path =
        TempPath("roundtrip_" + std::to_string(static_cast<int>(kind)) + ".phoebe");
    ASSERT_TRUE(trained.SaveBundle(path).ok());

    PhoebePipeline loaded;
    ASSERT_TRUE(loaded.LoadBundle(path).ok());
    EXPECT_TRUE(loaded.trained());
    // The checksum names the trained state: loading must reproduce it.
    EXPECT_EQ(trained.bundle()->checksum(), loaded.bundle()->checksum());
    ExpectBitIdenticalDecisions(trained.engine(), loaded.engine(), repo_->Day(3),
                                repo_->StatsBefore(3));
  }
}

TEST_F(BundleFixture, TextRoundTripIsIdentity) {
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reloaded = PipelineBundle::FromText(*text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto text2 = (*reloaded)->ToText();
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(*text, *text2);
  EXPECT_EQ(p.bundle()->checksum(), (*reloaded)->checksum());
}

TEST_F(BundleFixture, ChecksumDistinguishesTrainedStates) {
  PhoebePipeline a = TrainSmall(ModelKind::kGbdtPerStageType);
  PhoebePipeline b = TrainSmall(ModelKind::kGbdtPerStageType);
  // Same config + same data => same state, same checksum.
  EXPECT_EQ(a.bundle()->checksum(), b.bundle()->checksum());

  PipelineConfig other = SmallConfig(ModelKind::kGbdtPerStageType);
  other.exec_predictor.gbdt.seed += 1;
  PhoebePipeline c(other);
  c.Train(*repo_, 0, 3).Check();
  EXPECT_NE(a.bundle()->checksum(), c.bundle()->checksum());
}

TEST_F(BundleFixture, UntrainedBundleRefusesToSerialize) {
  PhoebePipeline p;
  EXPECT_FALSE(p.bundle()->ToText().ok());
  EXPECT_FALSE(p.SaveBundle(TempPath("untrained.phoebe")).ok());
}

TEST_F(BundleFixture, LoaderRejectsCorruption) {
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok());

  {  // Bad magic.
    std::string t = *text;
    t[0] = 'X';
    EXPECT_FALSE(PipelineBundle::FromText(t).ok());
  }
  {  // Unsupported version.
    std::string t = *text;
    size_t nl = t.find('\n');
    t = "PHOEBEBUNDLE 9999\n" + t.substr(nl + 1);
    auto r = PipelineBundle::FromText(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("version"), std::string::npos);
  }
  {  // Any payload bit flip must trip the checksum.
    std::string t = *text;
    t[t.size() / 2] ^= 0x01;
    auto r = PipelineBundle::FromText(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);
  }
  {  // Truncation anywhere must fail cleanly (header or payload).
    for (size_t frac = 1; frac <= 4; ++frac) {
      std::string t = text->substr(0, text->size() * frac / 5);
      EXPECT_FALSE(PipelineBundle::FromText(t).ok());
    }
  }
  {  // Trailing junk after end_bundle.
    std::string t = *text + "extra\n";
    EXPECT_FALSE(PipelineBundle::FromText(t).ok());
  }
  EXPECT_FALSE(PipelineBundle::LoadFromFile(TempPath("missing.phoebe")).ok());
}

TEST_F(BundleFixture, LoadedConfigMatchesSaved) {
  PipelineConfig cfg = SmallConfig(ModelKind::kGbdtGeneral);
  cfg.delta = 0.00123;
  cfg.ttl.min_samples_per_type = 77;
  PhoebePipeline p(cfg);
  p.Train(*repo_, 0, 3).Check();
  const std::string path = TempPath("config.phoebe");
  ASSERT_TRUE(p.SaveBundle(path).ok());
  auto bundle = PipelineBundle::LoadFromFile(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ((*bundle)->config().exec_predictor.kind, ModelKind::kGbdtGeneral);
  EXPECT_EQ((*bundle)->config().delta, 0.00123);
  EXPECT_EQ((*bundle)->config().ttl.min_samples_per_type, 77);
  EXPECT_EQ((*bundle)->delta(), 0.00123);
}

/// `text` with each of the three per-stack inference-flag lines set to
/// `value` and the checksum line recomputed over the edited payload.
std::string WithInferenceFlag(std::string text, char value) {
  for (const std::string key :
       {"\nexec.batch_inference 1\n", "\nsize.batch_inference 1\n",
        "\nttl.batch_inference 1\n"}) {
    const size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    if (at != std::string::npos) text[at + key.size() - 2] = value;
  }
  const size_t magic_end = text.find('\n');
  const size_t payload_begin = text.find('\n', magic_end + 1) + 1;
  const std::string payload = text.substr(payload_begin);
  return text.substr(0, magic_end + 1) + StrFormat("checksum %08x\n", Crc32(payload)) +
         payload;
}

TEST_F(BundleFixture, LegacyScalarInferenceFlagIsReadAndIgnored) {
  // Format v1 bundles saved while scalar scoring was selectable may carry
  // `batch_inference 0`. There is one inference path now: such a bundle must
  // load, decide byte-identically, name the same trained state, and
  // re-serialize to the bytes a fresh save writes.
  PhoebePipeline p = TrainSmall(ModelKind::kGbdtPerStageType);
  auto text = p.bundle()->ToText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string legacy = WithInferenceFlag(*text, '0');
  ASSERT_NE(legacy, *text);
  auto loaded = PipelineBundle::FromText(legacy);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->checksum(), p.bundle()->checksum());
  auto resaved = (*loaded)->ToText();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*resaved, *text);
  ExpectBitIdenticalDecisions(DecisionEngine(p.bundle()), DecisionEngine(*loaded),
                              repo_->Day(3), repo_->StatsBefore(3));
  // The flag is still a strict v1 bool: any other value is rejected.
  EXPECT_FALSE(PipelineBundle::FromText(WithInferenceFlag(*text, '2')).ok());
}

}  // namespace
}  // namespace phoebe::core
