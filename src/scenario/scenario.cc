#include "scenario/scenario.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"

namespace phoebe::scenario {

namespace {

const char kMagic[] = "phoebe_scenario";
constexpr int kFormatVersion = 1;

const char* KindToken(EventKind kind) {
  switch (kind) {
    case EventKind::kBurst: return "burst";
    case EventKind::kMtbf: return "mtbf";
    case EventKind::kDrift: return "drift";
    case EventKind::kInput: return "input";
  }
  return "?";
}

bool KindFromToken(const std::string& token, EventKind* out) {
  if (token == "burst") { *out = EventKind::kBurst; return true; }
  if (token == "mtbf") { *out = EventKind::kMtbf; return true; }
  if (token == "drift") { *out = EventKind::kDrift; return true; }
  if (token == "input") { *out = EventKind::kInput; return true; }
  return false;
}

const char* ModeToken(EventMode mode) {
  return mode == EventMode::kStep ? "step" : "ramp";
}

bool ModeFromToken(const std::string& token, EventMode* out) {
  if (token == "step") { *out = EventMode::kStep; return true; }
  if (token == "ramp") { *out = EventMode::kRamp; return true; }
  return false;
}

bool TokenSafe(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// The overlay fields in canonical serialization order.
struct OverlayField {
  const char* name;
  std::optional<double> ScenarioSpec::* member;
};
constexpr OverlayField kOverlayFields[] = {
    {"mean_instances_per_day", &ScenarioSpec::mean_instances_per_day},
    {"daily_drift_sigma", &ScenarioSpec::daily_drift_sigma},
    {"daily_input_growth", &ScenarioSpec::daily_input_growth},
    {"weekly_amplitude", &ScenarioSpec::weekly_amplitude},
    {"exec_noise_sigma", &ScenarioSpec::exec_noise_sigma},
};

/// Sequential line reader over the input; never reads past the end.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  bool Next(std::string* line) {
    if (pos_ >= text_.size()) return false;
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      // Last line without a trailing newline still counts.
      *line = std::string(text_.substr(pos_));
      pos_ = text_.size();
    } else {
      *line = std::string(text_.substr(pos_, nl - pos_));
      pos_ = nl + 1;
    }
    ++line_no_;
    return true;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  int line_no() const { return line_no_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_no_ = 0;
};

double CombinedFactor(const std::vector<ScenarioEvent>& events, EventKind kind,
                      int day) {
  double f = 1.0;
  for (const ScenarioEvent& e : events) {
    if (e.kind == kind) f *= e.FactorAt(day);
  }
  return f;
}

}  // namespace

double ScenarioEvent::FactorAt(int day) const {
  if (day < first_day) return 1.0;
  if (mode == EventMode::kStep) {
    return (last_day < 0 || day <= last_day) ? magnitude : 1.0;
  }
  // Ramp: linear 1 -> magnitude over [first_day, last_day], held after.
  if (day >= last_day) return magnitude;
  const double t = static_cast<double>(day - first_day) /
                   static_cast<double>(last_day - first_day);
  return 1.0 + (magnitude - 1.0) * t;
}

Status ScenarioSpec::Validate() const {
  if (!TokenSafe(name)) {
    return Status::InvalidArgument(
        StrFormat("scenario name '%s' must be a non-empty token of "
                  "[A-Za-z0-9._-]",
                  name.c_str()));
  }
  if (!std::isfinite(zipf_exponent) || zipf_exponent < 0.0) {
    return Status::InvalidArgument("zipf_exponent must be finite and >= 0");
  }
  if (mean_instances_per_day && *mean_instances_per_day <= 0.0) {
    return Status::InvalidArgument("overlay mean_instances_per_day must be > 0");
  }
  if (daily_drift_sigma && *daily_drift_sigma < 0.0) {
    return Status::InvalidArgument("overlay daily_drift_sigma must be >= 0");
  }
  if (daily_input_growth && *daily_input_growth <= -1.0) {
    return Status::InvalidArgument("overlay daily_input_growth must be > -1");
  }
  if (weekly_amplitude && (*weekly_amplitude < 0.0 || *weekly_amplitude > 1.0)) {
    return Status::InvalidArgument("overlay weekly_amplitude must be in [0, 1]");
  }
  if (exec_noise_sigma && *exec_noise_sigma < 0.0) {
    return Status::InvalidArgument("overlay exec_noise_sigma must be >= 0");
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const ScenarioEvent& e = events[i];
    const auto bad = [&](const char* why) {
      return Status::InvalidArgument(
          StrFormat("event %zu (%s %s): %s", i, KindToken(e.kind),
                    ModeToken(e.mode), why));
    };
    if (!std::isfinite(e.magnitude) || e.magnitude <= 0.0) {
      return bad("magnitude must be finite and > 0");
    }
    if (e.first_day < 0) return bad("first_day must be >= 0");
    if (e.mode == EventMode::kStep) {
      if (e.last_day != -1 && e.last_day < e.first_day) {
        return bad("last_day must be -1 (open-ended) or >= first_day");
      }
    } else {
      if (e.last_day < e.first_day) {
        return bad("ramp needs last_day >= first_day");
      }
    }
  }
  return Status::OK();
}

double ScenarioSpec::ArrivalFactor(int day) const {
  return CombinedFactor(events, EventKind::kBurst, day);
}
double ScenarioSpec::DriftFactor(int day) const {
  return CombinedFactor(events, EventKind::kDrift, day);
}
double ScenarioSpec::InputFactor(int day) const {
  return CombinedFactor(events, EventKind::kInput, day);
}
double ScenarioSpec::MtbfFactor(int day) const {
  return CombinedFactor(events, EventKind::kMtbf, day);
}

workload::WorkloadConfig ScenarioSpec::ApplyOverlay(
    workload::WorkloadConfig base) const {
  if (mean_instances_per_day) base.mean_instances_per_day = *mean_instances_per_day;
  if (daily_drift_sigma) base.daily_drift_sigma = *daily_drift_sigma;
  if (daily_input_growth) base.daily_input_growth = *daily_input_growth;
  if (weekly_amplitude) base.weekly_amplitude = *weekly_amplitude;
  if (exec_noise_sigma) base.exec_noise_sigma = *exec_noise_sigma;
  return base;
}

const std::vector<std::string>& ScenarioPresetNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "baseline",    "zipf",          "flash-crowd",
      "failure-storm", "drift-sudden", "drift-gradual"};
  return *names;
}

Status ScenarioFromPreset(std::string_view name, ScenarioSpec* out) {
  ScenarioSpec spec;
  spec.name = std::string(name);
  if (name == "baseline") {
    // The null scenario: byte-identical to running without one.
  } else if (name == "zipf") {
    // Hot-template skew: template 0 draws ~an order of magnitude more
    // traffic than the median template, stressing the decision cache's LRU.
    spec.zipf_exponent = 1.1;
  } else if (name == "flash-crowd") {
    // Two single-day arrival spikes inside a typical test span.
    spec.events.push_back({EventKind::kBurst, EventMode::kStep, 3, 3, 25.0});
    spec.events.push_back({EventKind::kBurst, EventMode::kStep, 9, 9, 80.0});
  } else if (name == "failure-storm") {
    // A correlated outage window: failure rate 8x baseline on days 2..4,
    // extending the Fig. 14 recovery evaluation.
    spec.events.push_back({EventKind::kMtbf, EventMode::kStep, 2, 4, 8.0});
  } else if (name == "drift-sudden") {
    // A step regime change from day 3 on: parameter drift 4x, inputs 1.6x.
    spec.events.push_back({EventKind::kDrift, EventMode::kStep, 3, -1, 4.0});
    spec.events.push_back({EventKind::kInput, EventMode::kStep, 3, -1, 1.6});
  } else if (name == "drift-gradual") {
    // The same destination reached by a ramp over days 1..8 (stresses the
    // accuracy-decay trigger rather than the age trigger).
    spec.events.push_back({EventKind::kDrift, EventMode::kRamp, 1, 8, 4.0});
    spec.events.push_back({EventKind::kInput, EventMode::kRamp, 1, 8, 1.6});
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown scenario preset '%s' (have: %s)",
                  std::string(name).c_str(),
                  Join(ScenarioPresetNames(), ", ").c_str()));
  }
  spec.Validate().Check();
  *out = std::move(spec);
  return Status::OK();
}

std::string SerializeScenario(const ScenarioSpec& spec) {
  std::string out = StrFormat("%s %d\n", kMagic, kFormatVersion);
  out += StrFormat("name %s\n", spec.name.c_str());
  StrAppend(&out, "zipf_exponent ", spec.zipf_exponent, '\n');
  for (const OverlayField& f : kOverlayFields) {
    const std::optional<double>& v = spec.*(f.member);
    if (v) StrAppend(&out, "overlay ", f.name, ' ', *v, '\n');
  }
  for (const ScenarioEvent& e : spec.events) {
    StrAppend(&out, "event ", KindToken(e.kind), ' ', ModeToken(e.mode), ' ', e.first_day,
              ' ', e.last_day, ' ', e.magnitude, '\n');
  }
  out += "end_scenario\n";
  return out;
}

Status ScenarioFromText(std::string_view text, ScenarioSpec* out) {
  LineReader reader(text);
  std::string line;
  const auto fail = [&](const std::string& why) {
    return Status::InvalidArgument(
        StrFormat("scenario line %d: %s", reader.line_no(), why.c_str()));
  };

  if (!reader.Next(&line)) return fail("empty input");
  if (line != StrFormat("%s %d", kMagic, kFormatVersion)) {
    return fail(StrFormat("bad magic (want '%s %d')", kMagic, kFormatVersion));
  }

  ScenarioSpec spec;
  bool saw_name = false, saw_zipf = false;
  bool saw_overlay[sizeof(kOverlayFields) / sizeof(kOverlayFields[0])] = {};
  bool terminated = false;

  while (reader.Next(&line)) {
    std::vector<std::string> tok = Split(line, ' ');
    if (tok.empty() || tok[0].empty()) return fail("blank line");
    if (tok[0] == "end_scenario") {
      if (tok.size() != 1) return fail("trailing tokens after end_scenario");
      terminated = true;
      break;
    }
    if (tok[0] == "name") {
      if (tok.size() != 2) return fail("want: name <token>");
      if (saw_name) return fail("duplicate name line");
      if (!TokenSafe(tok[1])) return fail("name is not token-safe");
      spec.name = tok[1];
      saw_name = true;
    } else if (tok[0] == "zipf_exponent") {
      if (tok.size() != 2) return fail("want: zipf_exponent <double>");
      if (saw_zipf) return fail("duplicate zipf_exponent line");
      PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[1], &spec.zipf_exponent));
      saw_zipf = true;
    } else if (tok[0] == "overlay") {
      if (tok.size() != 3) return fail("want: overlay <field> <double>");
      size_t fi = 0;
      for (; fi < sizeof(kOverlayFields) / sizeof(kOverlayFields[0]); ++fi) {
        if (tok[1] == kOverlayFields[fi].name) break;
      }
      if (fi == sizeof(kOverlayFields) / sizeof(kOverlayFields[0])) {
        return fail(StrFormat("unknown overlay field '%s'", tok[1].c_str()));
      }
      if (saw_overlay[fi]) {
        return fail(StrFormat("duplicate overlay field '%s'", tok[1].c_str()));
      }
      double v = 0.0;
      PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[2], &v));
      spec.*(kOverlayFields[fi].member) = v;
      saw_overlay[fi] = true;
    } else if (tok[0] == "event") {
      if (tok.size() != 6) {
        return fail("want: event <kind> <mode> <first_day> <last_day> <mag>");
      }
      ScenarioEvent e;
      if (!KindFromToken(tok[1], &e.kind)) {
        return fail(StrFormat("unknown event kind '%s'", tok[1].c_str()));
      }
      if (!ModeFromToken(tok[2], &e.mode)) {
        return fail(StrFormat("unknown event mode '%s'", tok[2].c_str()));
      }
      int32_t first = 0, last = 0;
      PHOEBE_RETURN_NOT_OK(ParseInt32(tok[3], &first));
      PHOEBE_RETURN_NOT_OK(ParseInt32(tok[4], &last));
      e.first_day = first;
      e.last_day = last;
      PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(tok[5], &e.magnitude));
      spec.events.push_back(e);
    } else {
      return fail(StrFormat("unknown directive '%s'", tok[0].c_str()));
    }
  }

  if (!terminated) return fail("missing end_scenario terminator");
  if (!reader.AtEnd()) return fail("trailing bytes after end_scenario");
  if (!saw_name) return fail("missing name line");
  PHOEBE_RETURN_NOT_OK(spec.Validate());
  *out = std::move(spec);
  return Status::OK();
}

Status ResolveScenario(const std::string& arg, ScenarioSpec* out) {
  for (const std::string& preset : ScenarioPresetNames()) {
    if (arg == preset) return ScenarioFromPreset(arg, out);
  }
  std::ifstream in(arg);
  if (!in) {
    return Status::InvalidArgument(
        StrFormat("--scenario '%s' is neither a preset (%s) nor a readable "
                  "scenario file",
                  arg.c_str(), Join(ScenarioPresetNames(), ", ").c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ScenarioFromText(buf.str(), out);
}

double ScenarioShaper::TemplateWeight(int index, int num_templates) const {
  const double s = spec_.zipf_exponent;
  if (s == 0.0 || num_templates <= 1) return 1.0;
  // weight_i proportional to 1/(i+1)^s, normalized to mean 1 over all
  // templates. O(num_templates) per call; generation is offline and template
  // counts are small, so recomputing beats caching state on a const shaper.
  double sum = 0.0;
  for (int j = 0; j < num_templates; ++j) {
    sum += std::pow(static_cast<double>(j + 1), -s);
  }
  const double w = std::pow(static_cast<double>(index + 1), -s);
  return w * static_cast<double>(num_templates) / sum;
}

std::unique_ptr<workload::WorkloadGenerator> MakeScenarioGenerator(
    const ScenarioSpec& spec, const workload::WorkloadConfig& base) {
  spec.Validate().Check();
  workload::WorkloadConfig cfg = spec.ApplyOverlay(base);
  std::shared_ptr<const workload::DayShaper> shaper;
  if (spec.zipf_exponent != 0.0 || !spec.events.empty()) {
    shaper = std::make_shared<ScenarioShaper>(spec);
  }
  return std::make_unique<workload::WorkloadGenerator>(cfg, std::move(shaper));
}

}  // namespace phoebe::scenario
