// Unit tests for the scenario layer: preset construction, event-factor
// semantics (step windows, open-ended steps, ramp interpolation and hold),
// Zipf template weights (mean-1 normalization), overlay application, the
// strict text parser's rejection paths, and --scenario resolution (preset
// name vs file path). Byte-level determinism across the fleet matrix lives
// in core_scenario_determinism_test; corruption coverage in
// fuzz_scenario_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "testing/scratch_dir.h"

namespace phoebe::scenario {
namespace {

TEST(ScenarioPresetTest, AllPresetsBuildAndValidate) {
  const auto& names = ScenarioPresetNames();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "baseline");
  for (const std::string& name : names) {
    ScenarioSpec spec;
    ScenarioFromPreset(name, &spec).Check();
    EXPECT_EQ(spec.name, name);
    spec.Validate().Check();
  }
  ScenarioSpec out;
  out.name = "sentinel";
  EXPECT_FALSE(ScenarioFromPreset("nope", &out).ok());
  EXPECT_EQ(out.name, "sentinel") << "out-param mutated on error";
}

TEST(ScenarioPresetTest, BaselineIsEmpty) {
  ScenarioSpec spec;
  ScenarioFromPreset("baseline", &spec).Check();
  EXPECT_EQ(spec.zipf_exponent, 0.0);
  EXPECT_TRUE(spec.events.empty());
  EXPECT_FALSE(spec.mean_instances_per_day.has_value());
  for (int d = 0; d < 20; ++d) {
    EXPECT_EQ(spec.ArrivalFactor(d), 1.0);
    EXPECT_EQ(spec.DriftFactor(d), 1.0);
    EXPECT_EQ(spec.InputFactor(d), 1.0);
    EXPECT_EQ(spec.MtbfFactor(d), 1.0);
  }
}

TEST(ScenarioEventTest, StepWindowSemantics) {
  ScenarioEvent e;
  e.kind = EventKind::kBurst;
  e.mode = EventMode::kStep;
  e.first_day = 3;
  e.last_day = 5;
  e.magnitude = 25.0;
  EXPECT_EQ(e.FactorAt(2), 1.0);
  EXPECT_EQ(e.FactorAt(3), 25.0);
  EXPECT_EQ(e.FactorAt(5), 25.0);
  EXPECT_EQ(e.FactorAt(6), 1.0);

  e.last_day = -1;  // open-ended
  EXPECT_EQ(e.FactorAt(2), 1.0);
  EXPECT_EQ(e.FactorAt(3), 25.0);
  EXPECT_EQ(e.FactorAt(1000), 25.0);
}

TEST(ScenarioEventTest, RampInterpolatesAndHolds) {
  ScenarioEvent e;
  e.kind = EventKind::kDrift;
  e.mode = EventMode::kRamp;
  e.first_day = 2;
  e.last_day = 6;
  e.magnitude = 5.0;
  EXPECT_EQ(e.FactorAt(1), 1.0);
  EXPECT_EQ(e.FactorAt(2), 1.0);           // ramp starts at 1.0
  EXPECT_DOUBLE_EQ(e.FactorAt(4), 3.0);    // halfway: 1 + (5-1)*0.5
  EXPECT_EQ(e.FactorAt(6), 5.0);           // full magnitude at last_day
  EXPECT_EQ(e.FactorAt(7), 5.0);           // held after the ramp
  EXPECT_EQ(e.FactorAt(100), 5.0);

  // Degenerate single-day ramp jumps straight to the magnitude.
  e.first_day = e.last_day = 3;
  EXPECT_EQ(e.FactorAt(2), 1.0);
  EXPECT_EQ(e.FactorAt(3), 5.0);
  EXPECT_EQ(e.FactorAt(4), 5.0);
}

TEST(ScenarioSpecTest, OverlappingSameKindEventsMultiply) {
  ScenarioSpec spec;
  spec.events.push_back({EventKind::kBurst, EventMode::kStep, 2, 4, 3.0});
  spec.events.push_back({EventKind::kBurst, EventMode::kStep, 3, 3, 2.0});
  spec.events.push_back({EventKind::kMtbf, EventMode::kStep, 3, 3, 8.0});
  EXPECT_EQ(spec.ArrivalFactor(2), 3.0);
  EXPECT_EQ(spec.ArrivalFactor(3), 6.0);  // 3 x 2
  EXPECT_EQ(spec.ArrivalFactor(4), 3.0);
  EXPECT_EQ(spec.MtbfFactor(3), 8.0);     // kinds never cross-multiply
  EXPECT_EQ(spec.DriftFactor(3), 1.0);
}

TEST(ScenarioSpecTest, ZipfWeightsAreMeanOneAndDecreasing) {
  ScenarioSpec spec;
  spec.zipf_exponent = 1.1;
  ScenarioShaper shaper(spec);
  const int n = 12;
  double sum = 0.0;
  double prev = 1e300;
  for (int i = 0; i < n; ++i) {
    const double w = shaper.TemplateWeight(i, n);
    EXPECT_GT(w, 0.0);
    EXPECT_LT(w, prev) << "weights must strictly decrease, index " << i;
    prev = w;
    sum += w;
  }
  // Mean weight 1.0: the skew changes the mix, not the total arrival mass.
  EXPECT_NEAR(sum, static_cast<double>(n), 1e-9);

  ScenarioShaper uniform((ScenarioSpec()));
  for (int i = 0; i < n; ++i) EXPECT_EQ(uniform.TemplateWeight(i, n), 1.0);
}

TEST(ScenarioSpecTest, ApplyOverlayOverridesOnlySetFields) {
  workload::WorkloadConfig base;
  base.num_templates = 9;
  const double base_growth = base.daily_input_growth;
  ScenarioSpec spec;
  spec.daily_drift_sigma = 0.5;
  spec.mean_instances_per_day = 11.0;
  workload::WorkloadConfig out = spec.ApplyOverlay(base);
  EXPECT_EQ(out.num_templates, 9);
  EXPECT_EQ(out.daily_drift_sigma, 0.5);
  EXPECT_EQ(out.mean_instances_per_day, 11.0);
  EXPECT_EQ(out.daily_input_growth, base_growth);
}

TEST(ScenarioSpecTest, ValidateRejectsBadSpecs) {
  ScenarioSpec ok;
  ok.Validate().Check();

  ScenarioSpec bad = ok;
  bad.name = "has space";
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.zipf_exponent = -0.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.weekly_amplitude = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.events.push_back({EventKind::kBurst, EventMode::kStep, -1, -1, 2.0});
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.events.push_back({EventKind::kBurst, EventMode::kStep, 4, 2, 2.0});
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.events.push_back({EventKind::kDrift, EventMode::kRamp, 4, -1, 2.0});
  EXPECT_FALSE(bad.Validate().ok());  // open-ended ramp is meaningless

  bad = ok;
  bad.events.push_back({EventKind::kInput, EventMode::kStep, 0, -1, 0.0});
  EXPECT_FALSE(bad.Validate().ok());  // magnitude must be > 0
}

TEST(ScenarioTextTest, ParserRejectsMalformedInput) {
  auto rejects = [](const std::string& text) {
    ScenarioSpec spec;
    spec.name = "sentinel";
    Status st = ScenarioFromText(std::string_view(text), &spec);
    EXPECT_FALSE(st.ok()) << "unexpectedly parsed: " << text;
    EXPECT_EQ(spec.name, "sentinel") << "out-param mutated on error";
  };
  rejects("");
  rejects("phoebe_scenario 2\nname x\nend_scenario\n");
  rejects("not_a_scenario 1\nname x\nend_scenario\n");
  rejects("phoebe_scenario 1\nend_scenario\n");  // missing name
  rejects("phoebe_scenario 1\nname x\n");        // missing terminator
  rejects("phoebe_scenario 1\nname x\nname y\nend_scenario\n");
  rejects("phoebe_scenario 1\nname x\nzipf_exponent 1\nzipf_exponent 1\n"
          "end_scenario\n");
  rejects("phoebe_scenario 1\nname x\noverlay nope 1\nend_scenario\n");
  rejects("phoebe_scenario 1\nname x\noverlay daily_drift_sigma 1\n"
          "overlay daily_drift_sigma 1\nend_scenario\n");
  rejects("phoebe_scenario 1\nname x\nevent burst step 0 -1 nan\n"
          "end_scenario\n");
  rejects("phoebe_scenario 1\nname x\nevent comet step 0 -1 2\n"
          "end_scenario\n");
  rejects("phoebe_scenario 1\nname x\nevent burst wiggle 0 -1 2\n"
          "end_scenario\n");
  rejects("phoebe_scenario 1\nname x\nmystery directive\nend_scenario\n");
  rejects("phoebe_scenario 1\nname x\nend_scenario\ntrailing\n");

  // A missing final newline is tolerated: the line reader treats the last
  // unterminated line as a line, so the document still parses.
  ScenarioSpec lenient;
  ScenarioFromText(std::string_view("phoebe_scenario 1\nname x\nend_scenario"),
                   &lenient)
      .Check();
  EXPECT_EQ(lenient.name, "x");
}

TEST(ScenarioTextTest, LinesParseInAnyOrderToTheCanonicalForm) {
  const std::string shuffled =
      "phoebe_scenario 1\n"
      "event mtbf step 2 4 8\n"
      "zipf_exponent 0.5\n"
      "overlay exec_noise_sigma 0.1\n"
      "name shuffled\n"
      "overlay daily_drift_sigma 0.03\n"
      "end_scenario\n";
  ScenarioSpec spec;
  ScenarioFromText(std::string_view(shuffled), &spec).Check();
  EXPECT_EQ(spec.name, "shuffled");
  EXPECT_EQ(spec.zipf_exponent, 0.5);
  ASSERT_EQ(spec.events.size(), 1u);
  EXPECT_EQ(spec.events[0].kind, EventKind::kMtbf);
  // Canonical order on the way out, independent of input order.
  const std::string canonical = SerializeScenario(spec);
  ScenarioSpec reparsed;
  ScenarioFromText(std::string_view(canonical), &reparsed).Check();
  EXPECT_EQ(SerializeScenario(reparsed), canonical);
}

TEST(ScenarioResolveTest, PresetNameThenFileThenError) {
  ScenarioSpec spec;
  ResolveScenario("flash-crowd", &spec).Check();
  EXPECT_EQ(spec.name, "flash-crowd");

  const phoebe::testing::ScratchDir scratch;
  const std::string path = scratch.File("custom.scenario");
  {
    ScenarioSpec custom;
    custom.name = "my-custom";
    custom.events.push_back({EventKind::kBurst, EventMode::kStep, 1, 2, 3.0});
    std::ofstream f(path, std::ios::binary);
    f << SerializeScenario(custom);
  }
  ScenarioSpec from_file;
  ResolveScenario(path, &from_file).Check();
  EXPECT_EQ(from_file.name, "my-custom");
  ASSERT_EQ(from_file.events.size(), 1u);

  ScenarioSpec untouched;
  untouched.name = "sentinel";
  EXPECT_FALSE(ResolveScenario("no-such-preset-or-file", &untouched).ok());
  EXPECT_EQ(untouched.name, "sentinel");
}

TEST(ScenarioShaperTest, ForwardsSpecFactors) {
  ScenarioSpec spec;
  spec.events.push_back({EventKind::kBurst, EventMode::kStep, 3, 3, 25.0});
  spec.events.push_back({EventKind::kDrift, EventMode::kStep, 2, -1, 4.0});
  spec.events.push_back({EventKind::kInput, EventMode::kStep, 5, 6, 1.6});
  ScenarioShaper shaper(spec);
  EXPECT_EQ(shaper.ArrivalMultiplier(3), 25.0);
  EXPECT_EQ(shaper.ArrivalMultiplier(4), 1.0);
  EXPECT_EQ(shaper.DriftSigmaScale(10), 4.0);
  EXPECT_EQ(shaper.InputScaleMultiplier(5), 1.6);
  EXPECT_EQ(shaper.InputScaleMultiplier(4), 1.0);
}

}  // namespace
}  // namespace phoebe::scenario
