// The aggregate-view query engine: SELECT A_gb, AVG(A_avg) FROM D
// WHERE phi GROUP BY A_gb  (Section 4 of the paper).

#ifndef CAUSUMX_DATASET_GROUP_QUERY_H_
#define CAUSUMX_DATASET_GROUP_QUERY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataset/pattern.h"
#include "dataset/table.h"

namespace causumx {

// Forward declarations keep this dataset-layer header free of hard
// dependencies on the engine and util execution machinery; the sharded
// overload's implementation includes them. (ShardPlan itself depends
// only on src/util, so no include cycle is possible.)
class ShardPlan;
class ThreadPool;

/// A group-by-average query.
struct GroupByAvgQuery {
  std::vector<std::string> group_by;  ///< A_gb: categorical attributes.
  std::string avg_attribute;          ///< A_avg: numeric outcome.
  Pattern where;                      ///< phi (empty = no filter).

  /// "SELECT Country, AVG(Salary) FROM D GROUP BY Country" rendering.
  std::string ToSql(const std::string& relation = "D") const;
};

/// One output group: its key values, the AVG, and the member rows. The
/// key and rows are views into the AggregateView that holds the group
/// (every group's share one flat array each), valid while that view or a
/// copy of it lives.
struct GroupResult {
  std::span<const Value> key;   ///< values of A_gb, in query order.
  double average = 0.0;         ///< AVG(A_avg) over the group's rows.
  size_t count = 0;             ///< number of contributing tuples.
  std::span<const size_t> rows;  ///< row indices (ascending) in the table.

  /// "US" or "US|Engineering" composite-key rendering.
  std::string KeyString() const;
};

/// The evaluated aggregate view Q(D).
class AggregateView {
 public:
  AggregateView() = default;

  /// Evaluates the query. Rows failing WHERE or with a null in any group-by
  /// or AVG attribute are excluded. Groups are ordered by first appearance.
  /// Averages use blocked compensated (Kahan) summation — per-64-row-block
  /// partials merged in block order — so large groups with large-offset
  /// values keep full precision and the result is bit-identical to the
  /// sharded overload below for every shard count. Group keys compare by
  /// exact dictionary code / numeric bit pattern (no per-row string
  /// rendering).
  static AggregateView Evaluate(const Table& table,
                                const GroupByAvgQuery& query);

  /// Shard-parallel evaluation: the WHERE mask, the per-row group
  /// assignment, and the per-group block partial sums are computed per
  /// shard on `pool` (null = serial), then merged deterministically in
  /// shard order. Because shard boundaries align to summation blocks,
  /// the result — group order, keys, counts, member rows, and averages,
  /// bit for bit — equals the single-shard overload above for any plan.
  static AggregateView Evaluate(const Table& table,
                                const GroupByAvgQuery& query,
                                const ShardPlan& plan, ThreadPool* pool);

  /// Reference evaluation keyed by rendered key strings (the
  /// pre-dictionary-code path), kept as the oracle the fast path is
  /// tested bit-identical against. Same blocked summation. Note the
  /// one intended divergence: string keys round doubles to 6 significant
  /// digits (conflating near-equal keys) and can alias across composite
  /// fields; the production path is exact.
  static AggregateView EvaluateReference(const Table& table,
                                         const GroupByAvgQuery& query);

  const GroupByAvgQuery& query() const { return Get().query; }
  size_t NumGroups() const { return Get().groups.size(); }
  const std::vector<GroupResult>& groups() const { return Get().groups; }
  const GroupResult& group(size_t i) const { return Get().groups[i]; }

  /// Group index that a table row belongs to, or -1 if filtered out.
  int32_t GroupOfRow(size_t row) const { return Get().row_group[row]; }

  /// All row indices that participate in some group.
  std::vector<size_t> ActiveRows() const;

 private:
  // A view never changes after evaluation, so copies share one
  // immutable body (a copy costs a reference count, not the groups).
  // Group g's key is keys[g * |A_gb|, ...) and its rows a contiguous
  // range of member_rows; the groups' spans point into both.
  struct Data {
    GroupByAvgQuery query;
    std::vector<GroupResult> groups;
    std::vector<Value> keys;
    std::vector<size_t> member_rows;
    std::vector<int32_t> row_group;

    // Points each group's spans into `keys` and `member_rows`, where
    // group g's rows start at offset `first_row[g]`.
    void Link(size_t kc, const std::vector<size_t>& first_row);
  };
  const Data& Get() const;

  std::shared_ptr<const Data> data_;
};

}  // namespace causumx

#endif  // CAUSUMX_DATASET_GROUP_QUERY_H_
