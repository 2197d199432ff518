#include "core/fleet_shard.h"

#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace phoebe::core {

namespace {

constexpr const char* kMagic = "phoebe_shard";
constexpr int kFormatVersion = 4;

std::string CutBits(const cluster::CutSet& cut) {
  std::string bits;
  bits.reserve(cut.before_cut.size());
  for (bool b : cut.before_cut) bits.push_back(b ? '1' : '0');
  return bits;
}

Result<cluster::CutSet> ParseCutBits(const std::string& bits) {
  if (bits.empty()) return Status::InvalidArgument("empty cut bitstring");
  cluster::CutSet cut;
  cut.before_cut.reserve(bits.size());
  for (char c : bits) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("cut bitstring must be 0/1 only");
    }
    cut.before_cut.push_back(c == '1');
  }
  return cut;
}

/// Line cursor over the blob text; every line must end in '\n' (a missing
/// final newline is a truncation error, same convention as the bundle).
class LineReader {
 public:
  explicit LineReader(const std::string& text) : text_(text) {}

  Result<std::string> Next() {
    if (pos_ >= text_.size()) return Status::InvalidArgument("unexpected end of shard blob");
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("shard blob truncated (missing newline)");
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

/// Parse the `cut` lines of one job record whose job line tokens are `jt`,
/// consuming from `r`. Shared body of ParseFleetShard and
/// ParseJobDecisionRecord; `*out` untouched on error.
Status ParseJobDecisionFromTokens(const std::vector<std::string>& jt,
                                  size_t expected_index, LineReader& r,
                                  std::optional<FleetDecision>* out) {
  int32_t index = -1;
  if (jt.size() < 2 || jt[0] != "job" || !ParseInt32(jt[1], &index).ok() ||
      index < 0 || static_cast<size_t>(index) != expected_index) {
    return Status::InvalidArgument("malformed job line: " + Join(jt, " "));
  }
  if (jt.size() == 3 && jt[2] == "-") {  // ineligible slot
    out->reset();
    return Status::OK();
  }
  int32_t num_cuts = -1;
  FleetDecision d;
  if (jt.size() != 5 || !ParseFiniteDouble(jt[2], &d.combined.objective).ok() ||
      !ParseFiniteDouble(jt[3], &d.combined.global_bytes).ok() ||
      !ParseInt32(jt[4], &num_cuts).ok() || num_cuts < 0) {
    return Status::InvalidArgument("malformed job line: " + Join(jt, " "));
  }
  for (int c = 0; c < num_cuts; ++c) {
    PHOEBE_ASSIGN_OR_RETURN(std::string cut_line, r.Next());
    std::vector<std::string> ct = Split(cut_line, ' ');
    if (ct.size() != 2 || ct[0] != "cut") {
      return Status::InvalidArgument("malformed cut line: " + cut_line);
    }
    PHOEBE_ASSIGN_OR_RETURN(cluster::CutSet cut, ParseCutBits(ct[1]));
    d.cuts.push_back(std::move(cut));
  }
  if (!d.cuts.empty()) d.combined.cut = d.cuts.back();  // outermost
  out->emplace(std::move(d));
  return Status::OK();
}

/// Serialize one day's embedded report section: the aggregate `report` line
/// plus one `outcome` line per job. Doubles go through AppendDouble so the
/// parse round-trips bit-exactly; outcome cut bitsets are not repeated (the
/// decision records carry them).
void AppendDayReportSection(std::string* out, const FleetDayReport& report) {
  StrAppend(out, "report ", report.jobs_considered, ' ', report.jobs_with_cut, ' ',
            report.jobs_admitted, ' ', report.storage_used_bytes, ' ',
            report.total_temp_byte_seconds, ' ', report.realized_saving_byte_seconds, ' ',
            report.knapsack_threshold, ' ', report.cache_hits, ' ', report.cache_misses,
            ' ', report.cache_evictions, '\n');
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const FleetJobOutcome& o = report.outcomes[i];
    StrAppend(out, "outcome ", i, ' ', o.job_id, ' ', o.admitted ? '1' : '0', ' ',
              o.global_bytes, ' ', o.predicted_value, ' ', o.realized_value, '\n');
  }
}

/// Parse the day report section whose `report` line tokens are `rt`,
/// consuming the `outcome` lines (one per job slot) from `r`. Cut bitsets
/// are reconstructed from `decisions` — the exact objects RunDay moves into
/// the outcomes — so the rebuilt report is byte-identical to the one the
/// shard serialized.
Status ParseDayReportSection(const std::vector<std::string>& rt,
                             const FleetDayDecisions& decisions, LineReader& r,
                             FleetDayReport* out) {
  FleetDayReport report;
  int64_t hits = 0, misses = 0, evictions = 0;
  if (rt.size() != 11 || rt[0] != "report" ||
      !ParseInt32(rt[1], &report.jobs_considered).ok() ||
      !ParseInt32(rt[2], &report.jobs_with_cut).ok() ||
      !ParseInt32(rt[3], &report.jobs_admitted).ok() ||
      !ParseFiniteDouble(rt[4], &report.storage_used_bytes).ok() ||
      !ParseFiniteDouble(rt[5], &report.total_temp_byte_seconds).ok() ||
      !ParseFiniteDouble(rt[6], &report.realized_saving_byte_seconds).ok() ||
      !ParseFiniteDouble(rt[7], &report.knapsack_threshold).ok() ||
      !ParseInt64(rt[8], &hits).ok() || !ParseInt64(rt[9], &misses).ok() ||
      !ParseInt64(rt[10], &evictions).ok()) {
    return Status::InvalidArgument("malformed report line: " + Join(rt, " "));
  }
  report.cache_hits = hits;
  report.cache_misses = misses;
  report.cache_evictions = evictions;
  report.outcomes.resize(decisions.decisions.size());
  for (size_t i = 0; i < decisions.decisions.size(); ++i) {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    std::vector<std::string> ot = Split(line, ' ');
    int32_t index = -1, admitted = -1;
    FleetJobOutcome& o = report.outcomes[i];
    if (ot.size() != 7 || ot[0] != "outcome" || !ParseInt32(ot[1], &index).ok() ||
        static_cast<size_t>(index) != i || !ParseInt64(ot[2], &o.job_id).ok() ||
        !ParseInt32(ot[3], &admitted).ok() || (admitted != 0 && admitted != 1) ||
        !ParseFiniteDouble(ot[4], &o.global_bytes).ok() ||
        !ParseFiniteDouble(ot[5], &o.predicted_value).ok() ||
        !ParseFiniteDouble(ot[6], &o.realized_value).ok()) {
      return Status::InvalidArgument("malformed outcome line: " + line);
    }
    o.admitted = admitted == 1;
    const std::optional<FleetDecision>& d = decisions.decisions[i];
    if (d.has_value() && !d->cuts.empty()) {
      o.cut = d->combined.cut;
      o.cuts = d->cuts;
    }
  }
  *out = std::move(report);
  return Status::OK();
}

}  // namespace

std::string SerializeJobDecisionRecord(size_t index,
                                       const std::optional<FleetDecision>& decision) {
  std::string out;
  AppendJobDecisionRecord(&out, index, decision.has_value() ? &*decision : nullptr);
  return out;
}

void AppendJobDecisionRecord(std::string* out, size_t index,
                             const FleetDecision* decision) {
  if (decision == nullptr) {
    StrAppend(out, "job ", index, " -\n");
    return;
  }
  StrAppend(out, "job ", index, ' ', decision->combined.objective, ' ',
            decision->combined.global_bytes, ' ', decision->cuts.size(), '\n');
  for (const cluster::CutSet& cut : decision->cuts) {
    StrAppend(out, "cut ", CutBits(cut), '\n');
  }
}

Status ParseJobDecisionRecord(const std::string& text, size_t expected_index,
                              std::optional<FleetDecision>* out) {
  LineReader r(text);
  PHOEBE_ASSIGN_OR_RETURN(std::string job_line, r.Next());
  std::optional<FleetDecision> parsed;
  PHOEBE_RETURN_NOT_OK(
      ParseJobDecisionFromTokens(Split(job_line, ' '), expected_index, r, &parsed));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after job decision record");
  }
  *out = std::move(parsed);
  return Status::OK();
}

Result<std::string> SerializeFleetShard(const FleetShardBlob& blob) {
  const FleetShardHeader& header = blob.header;
  if (header.shard_count < 1 || header.shard_index < 0 ||
      header.shard_index >= header.shard_count) {
    return Status::InvalidArgument("invalid shard index/count");
  }
  if (header.num_days < 1) return Status::InvalidArgument("num_days must be >= 1");
  if (header.arm_checksums.empty()) {
    return Status::InvalidArgument("a shard blob needs at least one arm");
  }
  const size_t num_arms = header.arm_checksums.size();

  std::string out = StrFormat("%s %d\n", kMagic, kFormatVersion);
  out += StrFormat("shard %d %d days %d arms %zu checksums", header.shard_index,
                   header.shard_count, header.num_days, num_arms);
  for (uint32_t checksum : header.arm_checksums) out += StrFormat(" %08x", checksum);
  out += "\n";
  for (const auto& [day, arms] : blob.days) {
    if (day < 0 || day >= header.num_days) {
      return Status::InvalidArgument(StrFormat("day %d outside [0, %d)", day,
                                               header.num_days));
    }
    if (!ShardOwnsDay(day, header.shard_index, header.shard_count)) {
      return Status::InvalidArgument(
          StrFormat("day %d is not owned by shard %d/%d", day, header.shard_index,
                    header.shard_count));
    }
    if (arms.size() != num_arms) {
      return Status::InvalidArgument(StrFormat(
          "day %d carries %zu arm(s), header declares %zu", day, arms.size(),
          num_arms));
    }
    out += StrFormat("day %d\n", day);
    for (size_t k = 0; k < num_arms; ++k) {
      const std::vector<std::optional<FleetDecision>>& decisions =
          arms[k].decisions.decisions;
      out += StrFormat("arm %zu jobs %zu\n", k, decisions.size());
      for (size_t i = 0; i < decisions.size(); ++i) {
        AppendJobDecisionRecord(&out, i, decisions[i].has_value() ? &*decisions[i] : nullptr);
      }
      if (arms[k].report.has_value()) {
        if (arms[k].report->outcomes.size() != decisions.size()) {
          return Status::InvalidArgument(StrFormat(
              "report for arm %zu of day %d covers %zu jobs, decisions cover %zu",
              k, day, arms[k].report->outcomes.size(), decisions.size()));
        }
        AppendDayReportSection(&out, *arms[k].report);
      }
      out += "end_arm\n";
    }
    out += "end_day\n";
  }
  out += "end_shard\n";
  return out;
}

Result<FleetShardBlob> ParseFleetShard(const std::string& text) {
  LineReader r(text);

  PHOEBE_ASSIGN_OR_RETURN(std::string magic_line, r.Next());
  {
    std::vector<std::string> tok = Split(magic_line, ' ');
    int32_t version = 0;
    if (tok.size() != 2 || tok[0] != kMagic || !ParseInt32(tok[1], &version).ok()) {
      return Status::InvalidArgument("not a phoebe shard blob (bad magic)");
    }
    if (version != kFormatVersion) {
      return Status::InvalidArgument(
          StrFormat("unsupported shard blob version %d (expected %d)", version,
                    kFormatVersion));
    }
  }

  FleetShardBlob blob;
  {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    std::vector<std::string> tok = Split(line, ' ');
    int32_t num_arms = 0;
    if (tok.size() < 9 || tok[0] != "shard" || tok[3] != "days" ||
        tok[5] != "arms" || tok[7] != "checksums" ||
        !ParseInt32(tok[1], &blob.header.shard_index).ok() ||
        !ParseInt32(tok[2], &blob.header.shard_count).ok() ||
        !ParseInt32(tok[4], &blob.header.num_days).ok() ||
        !ParseInt32(tok[6], &num_arms).ok() || num_arms < 1 ||
        tok.size() - 8 != static_cast<size_t>(num_arms)) {
      return Status::InvalidArgument("malformed shard header: " + line);
    }
    for (size_t k = 8; k < tok.size(); ++k) {
      uint32_t checksum = 0;
      if (!ParseHexU32(tok[k], &checksum).ok()) {
        return Status::InvalidArgument("malformed shard checksum: " + tok[k]);
      }
      blob.header.arm_checksums.push_back(checksum);
    }
    if (blob.header.shard_count < 1 || blob.header.shard_index < 0 ||
        blob.header.shard_index >= blob.header.shard_count) {
      return Status::InvalidArgument("invalid shard index/count in header");
    }
    if (blob.header.num_days < 1) {
      return Status::InvalidArgument("invalid num_days in header");
    }
  }
  const size_t num_arms = blob.header.arm_checksums.size();

  for (;;) {
    PHOEBE_ASSIGN_OR_RETURN(std::string line, r.Next());
    if (line == "end_shard") break;
    std::vector<std::string> tok = Split(line, ' ');
    int32_t day = 0;
    if (tok.size() != 2 || tok[0] != "day" || !ParseInt32(tok[1], &day).ok()) {
      return Status::InvalidArgument("malformed day header: " + line);
    }
    if (day < 0 || day >= blob.header.num_days) {
      return Status::InvalidArgument(StrFormat("day %d outside [0, %d)", day,
                                               blob.header.num_days));
    }
    if (!ShardOwnsDay(day, blob.header.shard_index, blob.header.shard_count)) {
      return Status::InvalidArgument(
          StrFormat("day %d is not owned by shard %d/%d", day,
                    blob.header.shard_index, blob.header.shard_count));
    }
    if (blob.days.count(day) != 0) {
      return Status::InvalidArgument(StrFormat("duplicate day %d in blob", day));
    }
    std::vector<ShardArmDay> arms(num_arms);
    for (size_t k = 0; k < num_arms; ++k) {
      PHOEBE_ASSIGN_OR_RETURN(std::string arm_line, r.Next());
      std::vector<std::string> at = Split(arm_line, ' ');
      int32_t arm = -1, num_jobs = -1;
      if (at.size() != 4 || at[0] != "arm" || at[2] != "jobs" ||
          !ParseInt32(at[1], &arm).ok() || static_cast<size_t>(arm) != k ||
          !ParseInt32(at[3], &num_jobs).ok() || num_jobs < 0) {
        return Status::InvalidArgument("malformed arm header: " + arm_line);
      }
      std::vector<std::optional<FleetDecision>>& decisions =
          arms[k].decisions.decisions;
      for (int32_t i = 0; i < num_jobs; ++i) {
        PHOEBE_ASSIGN_OR_RETURN(std::string job_line, r.Next());
        std::optional<FleetDecision> decision;
        PHOEBE_RETURN_NOT_OK(ParseJobDecisionFromTokens(
            Split(job_line, ' '), static_cast<size_t>(i), r, &decision));
        decisions.push_back(std::move(decision));
      }
      PHOEBE_ASSIGN_OR_RETURN(std::string end_line, r.Next());
      if (end_line.rfind("report ", 0) == 0) {
        FleetDayReport report;
        PHOEBE_RETURN_NOT_OK(ParseDayReportSection(
            Split(end_line, ' '), arms[k].decisions, r, &report));
        arms[k].report = std::move(report);
        PHOEBE_ASSIGN_OR_RETURN(end_line, r.Next());
      }
      if (end_line != "end_arm") {
        return Status::InvalidArgument("expected end_arm, got: " + end_line);
      }
    }
    PHOEBE_ASSIGN_OR_RETURN(std::string end_line, r.Next());
    if (end_line != "end_day") {
      return Status::InvalidArgument("expected end_day, got: " + end_line);
    }
    blob.days.emplace(day, std::move(arms));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after end_shard");
  }
  return blob;
}

Result<std::map<int, std::vector<ShardArmDay>>> CombineFleetShards(
    const std::vector<FleetShardBlob>& blobs,
    const std::vector<uint32_t>& expected_arm_checksums) {
  if (blobs.empty()) return Status::InvalidArgument("no shard blobs to combine");
  const int shard_count = blobs.front().header.shard_count;
  const int num_days = blobs.front().header.num_days;
  if (static_cast<int>(blobs.size()) != shard_count) {
    return Status::InvalidArgument(
        StrFormat("expected %d shard blobs, got %zu", shard_count, blobs.size()));
  }
  std::vector<bool> seen(static_cast<size_t>(shard_count), false);
  std::map<int, std::vector<ShardArmDay>> merged;
  for (const FleetShardBlob& blob : blobs) {
    const FleetShardHeader& h = blob.header;
    if (h.shard_count != shard_count || h.num_days != num_days) {
      return Status::InvalidArgument("shard blobs disagree on shard count or day range");
    }
    if (h.arm_checksums.size() != expected_arm_checksums.size()) {
      return Status::InvalidArgument(StrFormat(
          "shard %d carries %zu arm(s), this run has %zu — refusing to merge",
          h.shard_index, h.arm_checksums.size(), expected_arm_checksums.size()));
    }
    for (size_t k = 0; k < h.arm_checksums.size(); ++k) {
      if (h.arm_checksums[k] != expected_arm_checksums[k]) {
        return Status::InvalidArgument(StrFormat(
            "shard %d arm %zu was decided under bundle %08x, expected %08x — "
            "refusing to merge",
            h.shard_index, k, h.arm_checksums[k], expected_arm_checksums[k]));
      }
    }
    if (seen[static_cast<size_t>(h.shard_index)]) {
      return Status::InvalidArgument(StrFormat("duplicate shard index %d", h.shard_index));
    }
    seen[static_cast<size_t>(h.shard_index)] = true;
    for (const auto& [day, arms] : blob.days) {
      merged.emplace(day, arms);  // ParseFleetShard enforced ownership
    }
  }
  for (int s = 0; s < shard_count; ++s) {
    if (!seen[static_cast<size_t>(s)]) {
      return Status::InvalidArgument(StrFormat("missing shard %d of %d", s, shard_count));
    }
  }
  for (int d = 0; d < num_days; ++d) {
    if (merged.count(d) == 0) {
      return Status::InvalidArgument(
          StrFormat("day %d missing from shard %d's blob", d, d % shard_count));
    }
  }
  return merged;
}

std::string FleetDayReportJson(const FleetDayReport& report, int day) {
  JsonWriter w;
  w.BeginObject();
  w.KV("day", day);
  w.KV("jobs_considered", report.jobs_considered);
  w.KV("jobs_with_cut", report.jobs_with_cut);
  w.KV("jobs_admitted", report.jobs_admitted);
  w.KV("storage_used_bytes", report.storage_used_bytes);
  w.KV("total_temp_byte_seconds", report.total_temp_byte_seconds);
  w.KV("realized_saving_byte_seconds", report.realized_saving_byte_seconds);
  w.KV("saving_fraction", report.SavingFraction());
  w.KV("knapsack_threshold", report.knapsack_threshold);
  w.KV("cache_hits", report.cache_hits);
  w.KV("cache_misses", report.cache_misses);
  w.KV("cache_evictions", report.cache_evictions);
  w.Key("outcomes");
  w.BeginArray();
  for (const FleetJobOutcome& out : report.outcomes) {
    w.BeginObject();
    w.KV("job_id", out.job_id);
    w.KV("admitted", out.admitted);
    w.KV("global_bytes", out.global_bytes);
    w.KV("predicted_value", out.predicted_value);
    w.KV("realized_value", out.realized_value);
    w.Key("cuts");
    w.BeginArray();
    for (const cluster::CutSet& cut : out.cuts) w.Value(CutBits(cut));
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace phoebe::core
