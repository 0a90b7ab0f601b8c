// Row-shard partitioning for the parallel execution engine.
//
// A ShardPlan splits a table's row space [0, num_rows) into fixed-size
// contiguous shards. Every data-parallel stage of the pipeline —
// predicate bitset materialization, numeric view builds, aggregate-view
// evaluation, estimator row collection — iterates shards instead of the
// whole table, so a thread pool can execute shards concurrently.
//
// Two invariants make sharding invisible in the results:
//
//  1. Shard boundaries are multiples of kSummationBlockRows (= 64, one
//     bitset word). Bit-exact operations (predicate evaluation, set
//     algebra, popcounts) decompose into disjoint word ranges, and
//     order-sensitive floating-point reductions decompose into whole
//     summation blocks whose partials merge in ascending block order
//     (see BlockedKahan in util/stats.h). Either way the result is a
//     function of the data alone — any shard count, thread count, or
//     scheduling produces bit-identical output.
//
//  2. The shard size is fixed at plan creation and survives new table
//     versions: a derived engine plans its rows with its base's shard
//     size, so after an append the tail shard fills up to the shard size
//     and then new shards open, while shards fully below the old row
//     count keep their exact boundaries — and their cached segments,
//     shared outright (see the EvalEngine derivation constructor). A
//     dropped prefix that is a whole number of shards shifts boundaries
//     by exactly that many shards, so surviving segments are shared too.
//
// A requested shard count N (EvalEngineOptions::num_shards) resolves to
// a shard size of ceil(rows / N) rounded up to a block multiple; N = 0,
// the layout every product engine uses, means one shard per worker
// thread. Out-of-range requests clamp (a shard is never smaller than
// one block and never empty), so any N is valid.
//
// Layering note: this lives in src/util (it depends on nothing but
// <cstddef>) precisely so lower layers — the dataset layer's sharded
// AggregateView overload — can consume plans without reaching up into
// the engine module. The architectural analyzer enforces that DAG.

#ifndef CAUSUMX_UTIL_SHARD_PLAN_H_
#define CAUSUMX_UTIL_SHARD_PLAN_H_

#include <cstddef>

namespace causumx {

class ShardPlan {
 public:
  /// A single shard covering [0, num_rows) — the serial reference plan.
  ShardPlan() = default;
  explicit ShardPlan(size_t num_rows);

  /// Plan over `num_rows` rows with an explicit shard size. `shard_rows`
  /// is rounded up to a multiple of kSummationBlockRows (minimum one
  /// block).
  ShardPlan(size_t num_rows, size_t shard_rows);

  /// Resolves the user-facing shard-count knob: `requested_shards` = 0
  /// picks one shard per worker thread (`auto_shards`, itself floored at
  /// 1); any positive request is honored up to one shard per summation
  /// block. The returned plan has NumShards() in [1, requested] — fewer
  /// when the table is too small to split further.
  static ShardPlan ForShardCount(size_t num_rows, size_t requested_shards,
                                 size_t auto_shards);

  size_t num_rows() const { return num_rows_; }
  size_t shard_rows() const { return shard_rows_; }

  /// Number of shards; >= 1 (an empty table has one empty shard).
  size_t NumShards() const;

  /// Row range [ShardBegin(s), ShardEnd(s)) of shard s.
  size_t ShardBegin(size_t shard) const;
  size_t ShardEnd(size_t shard) const;

  /// Shard containing row `row` (row < num_rows).
  size_t ShardOfRow(size_t row) const { return row / shard_rows_; }

  bool operator==(const ShardPlan& other) const {
    return num_rows_ == other.num_rows_ && shard_rows_ == other.shard_rows_;
  }

 private:
  size_t num_rows_ = 0;
  size_t shard_rows_ = kMinShardRows;

  static constexpr size_t kMinShardRows = 64;  // = kSummationBlockRows
};

}  // namespace causumx

#endif  // CAUSUMX_UTIL_SHARD_PLAN_H_
