#include "core/fleet_ab.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.h"
#include "core/fleet_shard.h"

namespace phoebe::core {

namespace {

constexpr const char* kMagic = "phoebe_ab_report";
constexpr int kFormatVersion = 1;

/// Line cursor over the report text; every line must end in '\n' (a missing
/// final newline is a truncation error, same convention as the shard blob).
class LineReader {
 public:
  explicit LineReader(const std::string& text) : text_(text) {}

  Result<std::string> Next() {
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of ab report");
    }
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("ab report truncated (missing newline)");
    }
    std::string line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

bool TokenSafe(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

Status ValidateSpecs(const std::vector<FleetArmSpec>& specs) {
  if (specs.empty()) {
    return Status::InvalidArgument("an A/B run needs at least one arm");
  }
  std::set<std::string> names;
  for (size_t k = 0; k < specs.size(); ++k) {
    if (specs[k].engine == nullptr) {
      return Status::InvalidArgument(
          StrFormat("arm %zu has no engine", k));
    }
    if (!TokenSafe(specs[k].name)) {
      return Status::InvalidArgument(StrFormat(
          "arm %zu name must be non-empty and whitespace-free", k));
    }
    if (!names.insert(specs[k].name).second) {
      return Status::InvalidArgument("duplicate arm name: " + specs[k].name);
    }
  }
  return Status::OK();
}

/// Stages whose membership in the outermost checkpoint-before set differs;
/// an absent cut means no stage is before any cut.
int CountStageFlips(const std::optional<FleetDecision>& a,
                    const std::optional<FleetDecision>& b) {
  const std::vector<bool> empty;
  const std::vector<bool>& ba =
      a.has_value() ? a->combined.cut.before_cut : empty;
  const std::vector<bool>& bb =
      b.has_value() ? b->combined.cut.before_cut : empty;
  const size_t n = std::max(ba.size(), bb.size());
  int flips = 0;
  for (size_t s = 0; s < n; ++s) {
    const bool in_a = s < ba.size() && ba[s];
    const bool in_b = s < bb.size() && bb[s];
    if (in_a != in_b) ++flips;
  }
  return flips;
}

}  // namespace

Result<AbDayComparison> BuildAbDayComparison(
    const std::vector<DayContext>& ctxs, const std::vector<FleetArmSpec>& specs,
    const std::vector<FleetDayDecisions>& decisions,
    const std::vector<FleetDayReport>& reports) {
  const size_t n = specs.size();
  if (n == 0 || ctxs.size() != n || decisions.size() != n ||
      reports.size() != n) {
    return Status::InvalidArgument(
        "specs, contexts, decisions, and reports must be parallel and "
        "non-empty");
  }
  for (size_t k = 0; k < n; ++k) {
    if (ctxs[k].jobs == nullptr) {
      return Status::InvalidArgument(StrFormat("arm %zu context has no jobs", k));
    }
    if (ctxs[k].day != ctxs[0].day) {
      return Status::InvalidArgument(
          "per-arm contexts must share one day index");
    }
  }
  const size_t m = ctxs[0].jobs->size();
  AbDayComparison c;
  c.day = ctxs[0].day;
  c.jobs = static_cast<int>(m);
  c.arms.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const size_t mk = ctxs[k].jobs->size();
    if (decisions[k].decisions.size() != mk || reports[k].outcomes.size() != mk) {
      return Status::InvalidArgument(StrFormat(
          "arm %zu decisions/report do not cover the day's %zu jobs", k, mk));
    }
    AbArmDaySummary s;
    s.name = specs[k].name;
    s.checksum = specs[k].bundle_checksum;
    s.jobs_considered = reports[k].jobs_considered;
    s.jobs_with_cut = reports[k].jobs_with_cut;
    s.jobs_admitted = reports[k].jobs_admitted;
    s.storage_used_bytes = reports[k].storage_used_bytes;
    s.total_temp_byte_seconds = reports[k].total_temp_byte_seconds;
    s.realized_saving_byte_seconds = reports[k].realized_saving_byte_seconds;
    s.saving_fraction = reports[k].SavingFraction();
    s.cost = 1.0 - s.saving_fraction;
    c.arms.push_back(std::move(s));
  }

  c.deltas.resize(n);
  // The diff unit is the serialized shard-blob job record — the same bytes
  // lifecycle shadow mode compares — so "no flip" means byte-identical
  // decisions, not merely equal aggregates. Flips are only defined for arms
  // deciding arm 0's job vector (pointer identity); a scenario arm's jobs
  // are a different workload, where saving/cost deltas are the comparison.
  std::vector<std::string> base_records;
  for (size_t k = 1; k < n; ++k) {
    AbArmDelta& delta = c.deltas[k];
    delta.saving_delta = c.arms[k].saving_fraction - c.arms[0].saving_fraction;
    delta.cost_delta = c.arms[k].cost - c.arms[0].cost;
    if (ctxs[k].jobs != ctxs[0].jobs) continue;
    if (base_records.empty() && m > 0) {
      base_records.reserve(m);
      for (size_t i = 0; i < m; ++i) {
        base_records.push_back(
            SerializeJobDecisionRecord(i, decisions[0].decisions[i]));
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if (SerializeJobDecisionRecord(i, decisions[k].decisions[i]) !=
          base_records[i]) {
        delta.flipped_jobs.push_back(AbDecisionFlip{
            i, CountStageFlips(decisions[0].decisions[i],
                               decisions[k].decisions[i])});
      }
      const bool base_admitted = reports[0].outcomes[i].admitted;
      const bool arm_admitted = reports[k].outcomes[i].admitted;
      if (base_admitted != arm_admitted) {
        delta.admission_flipped.push_back(AbAdmissionFlip{i, arm_admitted});
      }
    }
    delta.decision_flips = static_cast<int>(delta.flipped_jobs.size());
    delta.admission_flips = static_cast<int>(delta.admission_flipped.size());
  }
  return c;
}

std::string SerializeAbReport(const std::vector<AbDayComparison>& days) {
  std::string out = StrFormat("%s %d\n", kMagic, kFormatVersion);
  for (const AbDayComparison& c : days) {
    out += StrFormat("day %d jobs %d arms %zu\n", c.day, c.jobs, c.arms.size());
    for (size_t k = 0; k < c.arms.size(); ++k) {
      const AbArmDaySummary& s = c.arms[k];
      out += StrFormat("arm %zu %s %08x considered %d with_cut %d admitted %d ", k,
                       s.name.c_str(), s.checksum, s.jobs_considered, s.jobs_with_cut,
                       s.jobs_admitted);
      StrAppend(&out, "storage ", s.storage_used_bytes, " temp ", s.total_temp_byte_seconds,
                " realized ", s.realized_saving_byte_seconds, " saving ", s.saving_fraction,
                " cost ", s.cost, '\n');
    }
    for (size_t k = 1; k < c.deltas.size(); ++k) {
      const AbArmDelta& d = c.deltas[k];
      StrAppend(&out, "delta ", k, " decision_flips ", d.decision_flips, " admission_flips ",
                d.admission_flips, " saving_delta ", d.saving_delta, " cost_delta ",
                d.cost_delta, '\n');
      for (const AbDecisionFlip& f : d.flipped_jobs) {
        out += StrFormat("flip %zu job %zu stages %d\n", k, f.job, f.stage_flips);
      }
      for (const AbAdmissionFlip& f : d.admission_flipped) {
        out += StrFormat("admission_flip %zu job %zu %s\n", k, f.job,
                         f.admitted_in_arm ? "+" : "-");
      }
    }
    out += "end_day\n";
  }
  out += "end_ab_report\n";
  return out;
}

Result<std::vector<AbDayComparison>> ParseAbReport(const std::string& text) {
  LineReader r(text);
  {
    PHOEBE_ASSIGN_OR_RETURN(std::string magic_line, r.Next());
    std::vector<std::string> tok = Split(magic_line, ' ');
    int32_t version = 0;
    if (tok.size() != 2 || tok[0] != kMagic || !ParseInt32(tok[1], &version).ok()) {
      return Status::InvalidArgument("not a phoebe ab report (bad magic)");
    }
    if (version != kFormatVersion) {
      return Status::InvalidArgument(StrFormat(
          "unsupported ab report version %d (expected %d)", version,
          kFormatVersion));
    }
  }

  std::vector<AbDayComparison> days;
  for (;;) {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    if (line == "end_ab_report") break;
    std::vector<std::string> tok = Split(line, ' ');
    AbDayComparison c;
    int32_t num_arms = 0;
    if (tok.size() != 6 || tok[0] != "day" || tok[2] != "jobs" ||
        tok[4] != "arms" || !ParseInt32(tok[1], &c.day).ok() ||
        !ParseInt32(tok[3], &c.jobs).ok() || c.jobs < 0 ||
        !ParseInt32(tok[5], &num_arms).ok() || num_arms < 1) {
      return Status::InvalidArgument("malformed ab day header: " + line);
    }
    c.arms.reserve(static_cast<size_t>(num_arms));
    for (int32_t k = 0; k < num_arms; ++k) {
      PHOEBE_ASSIGN_OR_RETURN(std::string arm_line, r.Next());
      std::vector<std::string> at = Split(arm_line, ' ');
      AbArmDaySummary s;
      int32_t index = -1;
      if (at.size() != 20 || at[0] != "arm" || !ParseInt32(at[1], &index).ok() ||
          index != k || !TokenSafe(at[2]) ||
          !ParseHexU32(at[3], &s.checksum).ok() || at[4] != "considered" ||
          !ParseInt32(at[5], &s.jobs_considered).ok() || at[6] != "with_cut" ||
          !ParseInt32(at[7], &s.jobs_with_cut).ok() || at[8] != "admitted" ||
          !ParseInt32(at[9], &s.jobs_admitted).ok() || at[10] != "storage" ||
          !ParseFiniteDouble(at[11], &s.storage_used_bytes).ok() ||
          at[12] != "temp" ||
          !ParseFiniteDouble(at[13], &s.total_temp_byte_seconds).ok() ||
          at[14] != "realized" ||
          !ParseFiniteDouble(at[15], &s.realized_saving_byte_seconds).ok() ||
          at[16] != "saving" ||
          !ParseFiniteDouble(at[17], &s.saving_fraction).ok() ||
          at[18] != "cost" || !ParseFiniteDouble(at[19], &s.cost).ok()) {
        return Status::InvalidArgument("malformed ab arm line: " + arm_line);
      }
      s.name = at[2];
      c.arms.push_back(std::move(s));
    }
    c.deltas.resize(static_cast<size_t>(num_arms));
    for (int32_t k = 1; k < num_arms; ++k) {
      PHOEBE_ASSIGN_OR_RETURN(std::string delta_line, r.Next());
      std::vector<std::string> dt = Split(delta_line, ' ');
      AbArmDelta& d = c.deltas[static_cast<size_t>(k)];
      int32_t index = -1;
      if (dt.size() != 10 || dt[0] != "delta" || !ParseInt32(dt[1], &index).ok() ||
          index != k || dt[2] != "decision_flips" || dt[4] != "admission_flips" ||
          dt[6] != "saving_delta" || dt[8] != "cost_delta" ||
          !ParseInt32(dt[3], &d.decision_flips).ok() || d.decision_flips < 0 ||
          d.decision_flips > c.jobs ||
          !ParseInt32(dt[5], &d.admission_flips).ok() || d.admission_flips < 0 ||
          d.admission_flips > c.jobs ||
          !ParseFiniteDouble(dt[7], &d.saving_delta).ok() ||
          !ParseFiniteDouble(dt[9], &d.cost_delta).ok()) {
        return Status::InvalidArgument("malformed ab delta line: " + delta_line);
      }
      int64_t last_job = -1;
      for (int32_t f = 0; f < d.decision_flips; ++f) {
        PHOEBE_ASSIGN_OR_RETURN(std::string flip_line, r.Next());
        std::vector<std::string> ft = Split(flip_line, ' ');
        int32_t fk = -1, job = -1, stages = -1;
        if (ft.size() != 6 || ft[0] != "flip" || !ParseInt32(ft[1], &fk).ok() ||
            fk != k || ft[2] != "job" || !ParseInt32(ft[3], &job).ok() ||
            job <= last_job || job >= c.jobs || ft[4] != "stages" ||
            !ParseInt32(ft[5], &stages).ok() || stages < 0) {
          return Status::InvalidArgument("malformed ab flip line: " + flip_line);
        }
        last_job = job;
        d.flipped_jobs.push_back(
            AbDecisionFlip{static_cast<size_t>(job), stages});
      }
      last_job = -1;
      for (int32_t f = 0; f < d.admission_flips; ++f) {
        PHOEBE_ASSIGN_OR_RETURN(std::string flip_line, r.Next());
        std::vector<std::string> ft = Split(flip_line, ' ');
        int32_t fk = -1, job = -1;
        if (ft.size() != 5 || ft[0] != "admission_flip" ||
            !ParseInt32(ft[1], &fk).ok() || fk != k || ft[2] != "job" ||
            !ParseInt32(ft[3], &job).ok() || job <= last_job || job >= c.jobs ||
            (ft[4] != "+" && ft[4] != "-")) {
          return Status::InvalidArgument("malformed ab admission_flip line: " +
                                         flip_line);
        }
        last_job = job;
        d.admission_flipped.push_back(
            AbAdmissionFlip{static_cast<size_t>(job), ft[4] == "+"});
      }
    }
    PHOEBE_ASSIGN_OR_RETURN(std::string end_line, r.Next());
    if (end_line != "end_day") {
      return Status::InvalidArgument("expected end_day, got: " + end_line);
    }
    days.push_back(std::move(c));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after end_ab_report");
  }
  return days;
}

FleetAbDriver::FleetAbDriver(std::vector<FleetArmSpec> specs)
    : specs_(std::move(specs)) {
  specs_status_ = ValidateSpecs(specs_);
  if (!specs_status_.ok()) return;
  arms_.reserve(specs_.size());
  for (const FleetArmSpec& spec : specs_) {
    arms_.push_back(std::make_unique<DecisionArm>(spec.engine, spec.config));
  }
}

Status FleetAbDriver::Calibrate(const std::vector<DayContext>& histories) {
  PHOEBE_RETURN_NOT_OK(specs_status_);
  if (histories.size() != arms_.size()) {
    return Status::InvalidArgument(
        StrFormat("calibration contexts cover %zu arms, driver has %zu",
                  histories.size(), arms_.size()));
  }
  for (size_t k = 0; k < arms_.size(); ++k) {
    PHOEBE_RETURN_NOT_OK(arms_[k]->Calibrate(histories[k]));
  }
  return Status::OK();
}

Result<std::vector<FleetDayDecisions>> FleetAbDriver::DecideDay(
    const std::vector<DayContext>& ctxs) const {
  PHOEBE_RETURN_NOT_OK(specs_status_);
  if (ctxs.size() != arms_.size()) {
    return Status::InvalidArgument(
        StrFormat("day contexts cover %zu arms, driver has %zu", ctxs.size(),
                  arms_.size()));
  }
  std::vector<FleetDayDecisions> decisions;
  decisions.reserve(arms_.size());
  for (size_t k = 0; k < arms_.size(); ++k) {
    PHOEBE_ASSIGN_OR_RETURN(FleetDayDecisions d, arms_[k]->DecideDay(ctxs[k]));
    decisions.push_back(std::move(d));
  }
  return decisions;
}

Result<FleetAbDriver::AbDayResult> FleetAbDriver::RunDay(
    const std::vector<DayContext>& ctxs) {
  PHOEBE_ASSIGN_OR_RETURN(std::vector<FleetDayDecisions> decisions,
                          DecideDay(ctxs));
  return ReplayDay(ctxs, decisions);
}

Result<FleetAbDriver::AbDayResult> FleetAbDriver::ReplayDay(
    const std::vector<DayContext>& ctxs,
    const std::vector<FleetDayDecisions>& precomputed) {
  PHOEBE_RETURN_NOT_OK(specs_status_);
  if (ctxs.size() != arms_.size()) {
    return Status::InvalidArgument(
        StrFormat("day contexts cover %zu arms, driver has %zu", ctxs.size(),
                  arms_.size()));
  }
  if (precomputed.size() != arms_.size()) {
    return Status::InvalidArgument(
        StrFormat("precomputed decisions cover %zu arms, driver has %zu",
                  precomputed.size(), arms_.size()));
  }
  AbDayResult result;
  result.decisions = precomputed;
  result.reports.reserve(arms_.size());
  for (size_t k = 0; k < arms_.size(); ++k) {
    PHOEBE_ASSIGN_OR_RETURN(FleetDayReport report,
                            arms_[k]->ReplayDay(ctxs[k], precomputed[k]));
    result.reports.push_back(std::move(report));
  }
  PHOEBE_ASSIGN_OR_RETURN(
      result.comparison,
      BuildAbDayComparison(ctxs, specs_, result.decisions, result.reports));
  return result;
}

}  // namespace phoebe::core
