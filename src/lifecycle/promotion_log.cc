#include "lifecycle/promotion_log.h"

#include <cmath>

#include "common/checksum.h"
#include "common/strings.h"

namespace phoebe::lifecycle {

namespace {

bool ValidReason(const std::string& reason) {
  return reason == "bootstrap" || reason == "accuracy" || reason == "age";
}

bool ValidVerdict(const std::string& verdict) {
  return verdict == "promoted" || verdict == "rejected";
}

/// The record body: every byte the trailing CRC covers.
std::string RecordBody(const PromotionRecord& r) {
  std::string body = StrFormat("record day %d window %d %d incumbent %08x candidate %08x ",
                               r.day, r.window_first, r.window_last,
                               r.incumbent_checksum, r.candidate_checksum);
  StrAppend(&body, "incumbent_cost ", r.incumbent_cost, " candidate_cost ",
            r.candidate_cost, " reason ", r.reason, " verdict ", r.verdict);
  return body;
}

/// A cost is either the -1 "not measured" sentinel or a fraction in [0, 1].
bool ValidCost(double cost) {
  return cost == -1.0 || (cost >= 0.0 && cost <= 1.0);
}

}  // namespace

std::string SerializePromotionRecord(const PromotionRecord& record) {
  std::string body = RecordBody(record);
  uint32_t crc = Crc32(body);
  return body + StrFormat(" crc %08x\n", crc);
}

Status ParsePromotionRecord(std::string_view line, PromotionRecord* out) {
  const std::string text(line);
  size_t crc_at = text.rfind(" crc ");
  if (crc_at == std::string::npos) {
    return Status::InvalidArgument("promotion record: missing crc field");
  }
  const std::string body = text.substr(0, crc_at);
  uint32_t stated = 0;
  PHOEBE_RETURN_NOT_OK(ParseHexU32(text.substr(crc_at + 5), &stated));
  if (Crc32(body) != stated) {
    return Status::InvalidArgument(
        StrFormat("promotion record: crc mismatch (stated %08x, computed %08x)",
                  stated, Crc32(body)));
  }

  std::vector<std::string> t = Split(body, ' ');
  if (t.size() != 18 || t[0] != "record" || t[1] != "day" || t[3] != "window" ||
      t[6] != "incumbent" || t[8] != "candidate" || t[10] != "incumbent_cost" ||
      t[12] != "candidate_cost" || t[14] != "reason" || t[16] != "verdict") {
    return Status::InvalidArgument("promotion record: malformed field layout");
  }
  PromotionRecord r;
  PHOEBE_RETURN_NOT_OK(ParseInt32(t[2], &r.day));
  PHOEBE_RETURN_NOT_OK(ParseInt32(t[4], &r.window_first));
  PHOEBE_RETURN_NOT_OK(ParseInt32(t[5], &r.window_last));
  PHOEBE_RETURN_NOT_OK(ParseHexU32(t[7], &r.incumbent_checksum));
  PHOEBE_RETURN_NOT_OK(ParseHexU32(t[9], &r.candidate_checksum));
  PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(t[11], &r.incumbent_cost));
  PHOEBE_RETURN_NOT_OK(ParseFiniteDouble(t[13], &r.candidate_cost));
  r.reason = t[15];
  r.verdict = t[17];
  if (r.day < 0) {
    return Status::InvalidArgument("promotion record: negative day");
  }
  if (r.window_first < 0 || r.window_first > r.window_last ||
      r.window_last > r.day) {
    return Status::InvalidArgument(
        StrFormat("promotion record: bad window [%d, %d] for day %d",
                  r.window_first, r.window_last, r.day));
  }
  if (!ValidCost(r.incumbent_cost) || !ValidCost(r.candidate_cost)) {
    return Status::InvalidArgument(
        "promotion record: cost outside [0, 1] and not the -1 sentinel");
  }
  if (!ValidReason(r.reason)) {
    return Status::InvalidArgument("promotion record: unknown reason '" + r.reason +
                                   "'");
  }
  if (!ValidVerdict(r.verdict)) {
    return Status::InvalidArgument("promotion record: unknown verdict '" +
                                   r.verdict + "'");
  }
  *out = std::move(r);
  return Status::OK();
}

std::string SerializePromotionLog(const std::vector<PromotionRecord>& records) {
  std::string out = StrFormat("%s %d\n", kPromotionLogMagic, kPromotionLogVersion);
  for (const PromotionRecord& r : records) out += SerializePromotionRecord(r);
  return out;
}

Status ParsePromotionLog(std::string_view text, std::vector<PromotionRecord>* out) {
  std::vector<std::string> lines = Split(std::string(text), '\n');
  // A well-formed log ends with '\n', so the split leaves one empty tail.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) {
    return Status::InvalidArgument("promotion log: empty input");
  }
  const std::string header =
      StrFormat("%s %d", kPromotionLogMagic, kPromotionLogVersion);
  if (lines[0] != header) {
    return Status::InvalidArgument("promotion log: bad header '" + lines[0] + "'");
  }
  std::vector<PromotionRecord> records;
  records.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    PromotionRecord r;
    Status st = ParsePromotionRecord(lines[i], &r);
    if (!st.ok()) {
      return Status::InvalidArgument(
          StrFormat("promotion log line %zu: %s", i + 1, st.message().c_str()));
    }
    records.push_back(std::move(r));
  }
  *out = std::move(records);
  return Status::OK();
}

}  // namespace phoebe::lifecycle
