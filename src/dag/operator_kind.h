// Physical operator kinds appearing in SCOPE-style execution plans.
//
// A stage packs one or more of these operators; the *stage type* (see
// workload/stage_type.h) is the canonical operator combination, mirroring how
// the paper groups its 33 stage types.
#pragma once

#include <string>
#include <string_view>

namespace phoebe::dag {

enum class OperatorKind : int {
  kExtract = 0,   ///< read input from storage
  kFilter,        ///< predicate evaluation
  kProject,       ///< column projection / scalar computation
  kAggregate,     ///< hash/stream aggregation
  kHashJoin,      ///< hash join build+probe
  kMergeJoin,     ///< sort-merge join
  kSort,          ///< full sort
  kPartition,     ///< hash partitioning (shuffle write)
  kMerge,         ///< shuffle read / n-ary merge
  kSplit,         ///< split one stream into several
  kUnion,         ///< concatenate streams
  kProcess,       ///< user-defined processor (UDF)
  kReduce,        ///< user-defined reducer
  kTopN,          ///< top-N selection
  kWindow,        ///< windowed analytic function
  kBroadcast,     ///< broadcast small side of a join
  kSpool,         ///< materialize-and-share (super-operator input reuse)
  kOutput,        ///< write final output
  kMaxValue,      // sentinel; keep last
};

inline constexpr int kNumOperatorKinds = static_cast<int>(OperatorKind::kMaxValue);

/// Stable short name, e.g. "Extract".
const std::string& OperatorKindName(OperatorKind kind);

/// Inverse of OperatorKindName; returns kMaxValue if unknown.
OperatorKind OperatorKindFromName(std::string_view name);

}  // namespace phoebe::dag
