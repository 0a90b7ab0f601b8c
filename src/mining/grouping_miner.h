// Grouping-pattern mining (Section 5.1 of the paper).
//
// Runs Apriori over the FD-closure attributes, computes each pattern's
// coverage over the groups of Q(D) (Definition 4.4), then removes
// redundant patterns: among patterns covering the identical group set,
// only the shortest survives (post-processing step, Section 5.1), which
// also guarantees the incomparability constraint downstream.

#ifndef CAUSUMX_MINING_GROUPING_MINER_H_
#define CAUSUMX_MINING_GROUPING_MINER_H_

#include <string>
#include <vector>

#include "dataset/group_query.h"
#include "dataset/table.h"
#include "mining/apriori.h"
#include "util/bitset.h"

namespace causumx {

/// A grouping pattern with its group coverage.
struct GroupingPattern {
  Pattern pattern;        ///< conjunction of attribute = value items.
  Bitset group_coverage;  ///< bit per group of Q(D); Cov(P_g).
  Bitset rows;            ///< tuple-level support (rows matching).
  size_t support = 0;     ///< matching tuples.

  /// |Cov(P_g)|: the number of groups the pattern covers.
  size_t NumGroupsCovered() const { return group_coverage.Count(); }
};

/// Knobs of phase 1.
struct GroupingMinerOptions {
  /// The frequent-pattern search (support threshold, depth).
  AprioriOptions apriori;
  /// Also emit the trivial per-group pattern A_gb = value for every group
  /// (ensures full coverage is reachable when FD attributes are scarce,
  /// e.g. the German dataset where each purpose needs its own insight).
  bool include_per_group_patterns = true;
};

/// Mines candidate grouping patterns for the view.
///
/// `grouping_attributes` must all satisfy A_gb -> W (use
/// PartitionAttributes). Coverage follows Definition 4.4: a pattern covers
/// group s iff every tuple of s satisfies it. When `engine` is non-null,
/// item bitsets are served from its shared predicate cache.
std::vector<GroupingPattern> MineGroupingPatterns(
    const Table& table, const AggregateView& view,
    const std::vector<std::string>& grouping_attributes,
    const GroupingMinerOptions& options = {}, EvalEngine* engine = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_MINING_GROUPING_MINER_H_
