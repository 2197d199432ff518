#include "dag/operator_kind.h"

#include <array>

#include "common/macros.h"

namespace phoebe::dag {

namespace {
const std::array<std::string, kNumOperatorKinds>& Names() {
  static const std::array<std::string, kNumOperatorKinds> kNames = {
      "Extract", "Filter",  "Project",   "Aggregate", "HashJoin", "MergeJoin",
      "Sort",    "Partition", "Merge",   "Split",     "Union",    "Process",
      "Reduce",  "TopN",    "Window",    "Broadcast", "Spool",    "Output"};
  return kNames;
}
}  // namespace

const std::string& OperatorKindName(OperatorKind kind) {
  int i = static_cast<int>(kind);
  PHOEBE_CHECK(i >= 0 && i < kNumOperatorKinds);
  return Names()[static_cast<size_t>(i)];
}

OperatorKind OperatorKindFromName(std::string_view name) {
  const auto& names = Names();
  for (int i = 0; i < kNumOperatorKinds; ++i) {
    if (names[static_cast<size_t>(i)] == name) return static_cast<OperatorKind>(i);
  }
  return OperatorKind::kMaxValue;
}

}  // namespace phoebe::dag
