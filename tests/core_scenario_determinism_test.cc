// Scenario determinism: every named preset keeps the fleet driver's
// byte-identical-report contract. A scenario only reshapes the deterministic
// per-(seed, day) workload generation inputs — never decide/replay — so for
// each preset the serialized day reports must be byte-identical across
// thread counts {1,4} x template cache {off, exact} x shard counts {1,2}
// (shards route through the real blob serialize/parse/combine path). The
// baseline preset is additionally pinned byte-identical to running with no
// scenario at all.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/fleet_shard.h"
#include "core/pipeline.h"
#include "scenario/scenario.h"
#include "telemetry/repository.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace phoebe::core {
namespace {

constexpr int kTrainDays = 2;
constexpr int kFleetDays = 2;  ///< fleet days 2..3 (3 is flash-crowd's burst)

workload::WorkloadConfig BaseConfig() {
  workload::WorkloadConfig cfg;
  cfg.num_templates = 10;
  cfg.seed = 91;
  return cfg;
}

/// One engine for every preset: decisions are a pure function of the jobs,
/// so the workload under test can vary while the model stays fixed.
class ScenarioDeterminismFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::WorkloadGenerator gen(BaseConfig());
    telemetry::WorkloadRepository repo;
    for (int d = 0; d < kTrainDays + 1; ++d) {
      repo.AddDay(d, gen.GenerateDay(d)).Check();
    }
    PipelineConfig cfg = PhoebePipeline::DefaultConfig();
    cfg.exec_predictor.gbdt.num_trees = 10;
    cfg.size_predictor.gbdt.num_trees = 10;
    cfg.ttl.gbdt.num_trees = 10;
    pipeline_ = new PhoebePipeline(cfg);
    pipeline_->Train(repo, 0, kTrainDays).Check();
  }
  static void TearDownTestSuite() { delete pipeline_; }

  /// The preset's workload for the whole run (train + fleet days).
  static telemetry::WorkloadRepository MakeRepo(const std::string& preset) {
    scenario::ScenarioSpec spec;
    scenario::ScenarioFromPreset(preset, &spec).Check();
    auto gen = scenario::MakeScenarioGenerator(spec, BaseConfig());
    telemetry::WorkloadRepository repo;
    for (int d = 0; d < kTrainDays + kFleetDays; ++d) {
      repo.AddDay(d, gen->GenerateDay(d)).Check();
    }
    return repo;
  }

  /// One day report serialized with the cache counters zeroed: hits/misses
  /// report real cache activity and legitimately differ between cache
  /// settings, while everything else (decisions, cuts, costs) must not —
  /// the same neutrality contract prop_batch_inference_test pins.
  static std::string NormalizedReportJson(FleetDayReport report, int day) {
    report.cache_hits = 0;
    report.cache_misses = 0;
    report.cache_evictions = 0;
    return FleetDayReportJson(report, day) + "\n";
  }

  /// Serialized per-day reports of a full fleet run over `repo` under the
  /// given knobs. shard_count > 1 routes the decide phase through the blob
  /// protocol (serialize -> parse -> combine -> ReplayDay), exactly like N
  /// shard processes plus a merge.
  static std::string FleetReport(telemetry::WorkloadRepository& repo,
                                 int threads, bool cache, int shard_count) {
    FleetConfig cfg;
    cfg.num_threads = threads;
    if (cache) {
      cfg.template_cache.enabled = true;
      cfg.template_cache.capacity = 128;  // exact mode: byte-neutral
    }
    DecisionArm driver(&pipeline_->engine(), cfg);
    auto context = [&repo](int d, const telemetry::HistoricStats& stats) {
      return DayContext(d, repo.Day(kTrainDays + d), stats);
    };

    std::string out;
    if (shard_count == 1) {
      for (int d = 0; d < kFleetDays; ++d) {
        const telemetry::HistoricStats stats = repo.StatsBefore(kTrainDays + d);
        auto report = driver.RunDay(context(d, stats));
        report.status().Check();
        out += NormalizedReportJson(*report, d);
      }
      return out;
    }

    const uint32_t checksum = pipeline_->bundle()->checksum();
    std::vector<FleetShardBlob> blobs;
    for (int s = 0; s < shard_count; ++s) {
      // Fresh arm per shard, exactly like an independent process.
      DecisionArm shard_driver(&pipeline_->engine(), cfg);
      FleetShardBlob blob;
      blob.header = FleetShardHeader{s, shard_count, kFleetDays, {checksum}};
      for (int d = 0; d < kFleetDays; ++d) {
        if (!ShardOwnsDay(d, s, shard_count)) continue;
        const telemetry::HistoricStats stats = repo.StatsBefore(kTrainDays + d);
        auto decisions = shard_driver.DecideDay(context(d, stats));
        decisions.status().Check();
        blob.days[d].push_back(ShardArmDay{std::move(*decisions), std::nullopt});
      }
      auto text = SerializeFleetShard(blob);
      text.status().Check();
      auto parsed = ParseFleetShard(*text);  // round-trip through the file form
      parsed.status().Check();
      blobs.push_back(std::move(*parsed));
    }
    auto merged = CombineFleetShards(blobs, {checksum});
    merged.status().Check();
    for (int d = 0; d < kFleetDays; ++d) {
      const telemetry::HistoricStats stats = repo.StatsBefore(kTrainDays + d);
      auto report = driver.ReplayDay(context(d, stats), merged->at(d)[0].decisions);
      report.status().Check();
      out += NormalizedReportJson(*report, d);
    }
    return out;
  }

  static PhoebePipeline* pipeline_;
};

PhoebePipeline* ScenarioDeterminismFixture::pipeline_ = nullptr;

// The contract the scenario layer must keep: for every preset, one baseline
// serialization pins the report bytes across the whole determinism matrix.
TEST_F(ScenarioDeterminismFixture, EveryPresetByteIdenticalAcrossThreadsCacheShards) {
  for (const std::string& preset : scenario::ScenarioPresetNames()) {
    telemetry::WorkloadRepository repo = MakeRepo(preset);
    const std::string baseline = FleetReport(repo, 1, false, 1);
    ASSERT_FALSE(baseline.empty()) << preset;
    for (int threads : {1, 4}) {
      for (bool cache : {false, true}) {
        for (int shards : {1, 2}) {
          EXPECT_EQ(baseline, FleetReport(repo, threads, cache, shards))
              << preset << ": threads " << threads << ", cache " << cache
              << ", shards " << shards;
        }
      }
    }
  }
}

// `--scenario baseline` is the identity: the generated days are byte-for-byte
// the days a bare WorkloadGenerator produces (no shaper attached, and a x1.0
// shaper would be IEEE-exact anyway).
TEST_F(ScenarioDeterminismFixture, BaselinePresetMatchesPlainGeneratorBytes) {
  scenario::ScenarioSpec spec;
  scenario::ScenarioFromPreset("baseline", &spec).Check();
  auto scenario_gen = scenario::MakeScenarioGenerator(spec, BaseConfig());
  workload::WorkloadGenerator plain(BaseConfig());
  for (int d = 0; d < kTrainDays + kFleetDays; ++d) {
    EXPECT_EQ(workload::SerializeTrace(scenario_gen->GenerateDay(d)),
              workload::SerializeTrace(plain.GenerateDay(d)))
        << "day " << d;
  }
}

// Hostile presets must actually be hostile: the flash-crowd burst day
// carries a multiple of the baseline's jobs, and drift presets change the
// generated telemetry. (Magnitudes are scenario_test's concern; this guards
// against a preset silently degenerating into baseline.)
TEST_F(ScenarioDeterminismFixture, PresetsReshapeTheWorkload) {
  workload::WorkloadGenerator plain(BaseConfig());
  const std::string base_day3 = workload::SerializeTrace(plain.GenerateDay(3));
  const size_t base_jobs = plain.GenerateDay(3).size();

  scenario::ScenarioSpec crowd;
  scenario::ScenarioFromPreset("flash-crowd", &crowd).Check();
  auto crowd_gen = scenario::MakeScenarioGenerator(crowd, BaseConfig());
  EXPECT_GT(crowd_gen->GenerateDay(3).size(), 5 * base_jobs);

  for (const char* preset : {"zipf", "drift-sudden", "drift-gradual"}) {
    scenario::ScenarioSpec spec;
    scenario::ScenarioFromPreset(preset, &spec).Check();
    auto gen = scenario::MakeScenarioGenerator(spec, BaseConfig());
    EXPECT_NE(workload::SerializeTrace(gen->GenerateDay(3)), base_day3)
        << preset;
  }
}

}  // namespace
}  // namespace phoebe::core
