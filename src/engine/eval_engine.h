// Shared evaluation engine: interned atomic predicates with lazily
// materialized, cached row bitsets, plus cached numeric column views —
// executed shard-parallel over a row-partitioned table.
//
// One EvalEngine instance is bound to one Table and shared by every
// component that evaluates patterns against it — the grouping/treatment
// miners, the effect estimator, the baselines, and the service's
// drill-downs. Each atomic SimplePredicate is interned into a
// dense id; its matching rows are materialized once per table as
// per-shard bitset *segments* (one per ShardPlan shard, built
// ThreadPool-parallel) and conjunctive Patterns evaluate as shard-wise
// AND-accumulations of cached segments instead of row-at-a-time Value
// comparisons. The lattice structure of treatment mining makes this pay
// off: every level-(d+1) pattern reuses the d+1 atom segments its
// ancestors already materialized.
//
// Sharding is a pure execution strategy: shard boundaries are aligned to
// summation blocks (ShardPlan), all bit-level work decomposes exactly,
// and results are bit-identical for every shard count and thread count
// (the property suite in tests/test_property_sharded.cpp enforces this
// against the row-at-a-time reference path).
//
// Cached segments are byte-accounted and individually evictable
// (EvictLru), so a long-lived engine — e.g. one owned by an
// ExplanationService table entry serving many queries — can be kept
// under a memory budget. Eviction only discards cached work: an evicted
// segment is rematerialized on next use, bit-identically, and eviction
// granularity is one (predicate, shard) segment, so a tight budget
// sheds cold shards before cold predicates.
//
// A new table version (rows appended, an expired prefix dropped, or
// both) gets a derived engine: one row map carries the interned ids and
// every still-valid segment over, sharing untouched shards outright and
// re-evaluating only appended rows. Warm-state import re-slices an
// exported cache onto the engine's own shard plan through the same map.
//
// One binding chain: a shared_ptr<const Table> owns the rows, the engine
// holds it, and an EstimatorContext holds the engine. A cache-bypass
// engine (cache_enabled = false) routes Evaluate through the reference
// Pattern::Evaluate path; it is an oracle that tests and benches build
// explicitly to check the cached path bit-for-bit, not a product mode.

#ifndef CAUSUMX_ENGINE_EVAL_ENGINE_H_
#define CAUSUMX_ENGINE_EVAL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/pattern.h"
#include "dataset/predicate.h"
#include "dataset/table.h"
#include "util/shard_plan.h"
#include "util/bitset.h"
#include "util/thread_annotations.h"

namespace causumx {

class ThreadPool;  // util/thread_pool.h; engines only hold a pointer.

/// Dense id of an interned atomic predicate (valid for one engine).
using PredicateId = uint32_t;

/// Cumulative cache counters. `bitset_hits` counts atom segment lookups
/// served from an already-materialized segment and
/// `segments_materialized` counts segment builds; `pattern_evals` /
/// `bypass_evals` split Evaluate/EvaluateOn calls by path.
/// `bitset_bytes` / `view_bytes` are current (not cumulative) accounted
/// sizes. With a single-shard plan a segment is the whole bitset, so the
/// segment counters coincide with the historical per-bitset ones.
struct EvalEngineStats {
  uint64_t predicates_interned = 0;  ///< distinct predicates interned
  uint64_t bitsets_materialized = 0;  ///< segments built (alias, see above)
  uint64_t bitset_hits = 0;  ///< segment lookups served from the cache
  uint64_t bitsets_evicted = 0;  ///< segments evicted
  /// Predicates that carried a segment into this engine through a
  /// derivation without a dropped prefix (or a cache import).
  uint64_t bitsets_extended = 0;
  /// Predicates that carried a segment through a derivation that dropped
  /// a prefix.
  uint64_t bitsets_retracted = 0;
  uint64_t pattern_evals = 0;  ///< Evaluate/EvaluateOn on the cached path
  uint64_t bypass_evals = 0;  ///< Evaluate/EvaluateOn on the bypass path
  uint64_t column_views_built = 0;  ///< numeric column views built
  uint64_t column_views_extended = 0;  ///< derived, no dropped prefix
  uint64_t column_views_retracted = 0;  ///< derived, prefix dropped
  size_t bitset_bytes = 0;  ///< resident predicate segment bytes
  size_t view_bytes = 0;  ///< resident numeric column view bytes
  size_t num_shards = 1;  ///< shards in the engine's plan
};

/// Cached numeric view of one column: GetNumeric for every row (NaN on
/// null) plus the non-null mask, as flat arrays for hot loops.
struct NumericColumnView {
  std::vector<double> values;  ///< GetNumeric per row (NaN on null)
  Bitset valid;  ///< set where the row's value is non-null
};

/// Execution configuration of an engine.
struct EvalEngineOptions {
  /// When false, Evaluate routes through the reference
  /// Pattern::Evaluate path and nothing is cached (nor memoized by an
  /// EstimatorContext over the engine). A test and bench oracle only:
  /// no product path builds a bypass engine.
  bool cache_enabled = true;
  /// Row shards for the table partition: 0 = one shard per pool worker
  /// (or 1 without a pool), otherwise the requested count clamped to
  /// [1, one shard per 64-row block]. Results are bit-identical for
  /// every value; only the parallelism granularity changes.
  size_t num_shards = 1;
  /// Worker pool for shard-parallel builds and evaluations. May be
  /// null (serial execution over the same shard plan). The engine keeps
  /// the pool alive.
  std::shared_ptr<ThreadPool> pool = nullptr;
};

/// Pattern-evaluation engine bound to one table.
///
/// Thread-safe: Intern/PredicateBits/Evaluate/EvaluateOn/Numeric/EvictLru
/// may be called concurrently; each predicate segment and column view is
/// materialized at most once between evictions.
class EvalEngine {
 public:
  /// Binds a fresh engine to `table`, which it keeps alive, so owners
  /// (such as ExplanationService) can hand the engine out
  /// without lifetime coupling to the table holder. A caller that only
  /// has a `const Table&` passes BorrowTable(table) and keeps the table
  /// alive itself.
  explicit EvalEngine(std::shared_ptr<const Table> table,
                      EvalEngineOptions options = {});

  /// Derivation: a new engine over `table`, which must be `base`'s table
  /// with its first `dropped_prefix_rows` rows removed, followed by any
  /// appended rows — row r of `table` holds the values of base row
  /// `dropped_prefix_rows + r` up to the base's last row, and appended
  /// rows after that. The streaming append path is the case with no
  /// dropped prefix; windowed retention (Table::Tail, whose dictionaries
  /// may be re-coded — harmless, predicates match by value) is the case
  /// with no appended rows.
  ///
  /// Every interned predicate keeps its dense id, so EstimatorContext
  /// memo keys stay valid. Cached segments carry over shard by shard
  /// through one row map: a target shard whose rows are exactly one
  /// resident base segment shares it outright (zero copy — an append
  /// leaves every clean shard untouched); any other shard is rebuilt
  /// from the resident base segments covering its surviving rows plus
  /// an evaluation of its appended rows only; a shard that needs an
  /// evicted base segment stays empty and rematerializes on demand.
  /// Shards of appended rows alone are built only for predicates that
  /// carried some shard. Numeric column views follow the same map,
  /// except categorical views when a prefix is dropped (their values are
  /// dictionary codes). Byte accounting restarts from the carried state,
  /// so expiry is how resident bytes shrink.
  ///
  /// The shard size, pool and cache mode are inherited, so shard
  /// boundaries stay stable across appends. Safe while `base` is
  /// serving concurrent queries: only pointers are copied under its
  /// locks, and `base` is never modified. Throws std::invalid_argument
  /// when `dropped_prefix_rows` exceeds the base rows, `table` has fewer
  /// rows than the base keeps, or the column counts differ.
  EvalEngine(std::shared_ptr<const Table> table, const EvalEngine& base,
             size_t dropped_prefix_rows = 0);

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// The bound table.
  const Table& table() const { return *table_; }

  /// False for a cache-bypass oracle engine (see EvalEngineOptions).
  bool cache_enabled() const { return cache_enabled_; }

  /// The engine's row partition (single-shard by default).
  const ShardPlan& plan() const { return plan_; }

  /// The engine's worker pool (null = serial execution).
  ThreadPool* pool() const { return pool_.get(); }

  /// Interns an atomic predicate, returning its dense id. Idempotent:
  /// structurally equal predicates intern to the same id.
  PredicateId Intern(const SimplePredicate& pred);

  /// The matching-row bitset of an interned predicate, materialized on
  /// first use (agrees bit-for-bit with Pattern::Evaluate / Matches).
  /// Returned by shared_ptr so a concurrent EvictLru can never pull the
  /// bits out from under a reader; an evicted entry rebuilds on next
  /// use. With a multi-shard plan the cached segments are assembled
  /// into a fresh whole-table bitset per call; Evaluate works on the
  /// segments directly and is the hot path.
  std::shared_ptr<const Bitset> PredicateBits(PredicateId id);

  /// Batched pattern evaluation. Cached path: shard-wise AND-accumulate
  /// of cached atom segments (pool-parallel across shards). Bypass
  /// path: Pattern::Evaluate. Bit-identical either way.
  Bitset Evaluate(const Pattern& pattern);

  /// Evaluate restricted to rows where `mask` is set.
  Bitset EvaluateOn(const Pattern& pattern, const Bitset& mask);

  /// Cached numeric view of column `col` (by index), built on first use
  /// (pool-parallel across shards).
  const NumericColumnView& Numeric(size_t col);

  /// Cached distinct non-null values of column `col`, ascending (the
  /// atom generator calls this once per lattice walk; uncached it is an
  /// O(rows) set-build each time). Built on first use; in bypass mode it
  /// recomputes per call (identical values, uncached work profile).
  /// Callers gate on Column::NumDistinct first, so cached vectors stay
  /// small in practice.
  std::shared_ptr<const std::vector<Value>> DistinctValues(size_t col);

  /// Column::NumDistinct of column `col`, read from the cached distinct
  /// values when they are built. A derivation without a dropped prefix
  /// carries those values (Column::DistinctValuesAfterAppend), so an
  /// append does not recount the column.
  size_t NumDistinct(size_t col);

  /// Number of distinct predicates interned so far.
  size_t NumInterned() const;

  /// Accounted bytes of currently materialized predicate segments (the
  /// evictable portion of the cache; numeric views are bounded by the
  /// table footprint and not evicted).
  size_t CacheBytes() const;

  /// Evicts least-recently-used (predicate, shard) segments until at
  /// least `bytes_to_free` accounted bytes are released (or nothing is
  /// left to evict). Returns the bytes actually freed. Safe to call
  /// concurrently with evaluation; evicted segments rebuild on demand.
  size_t EvictLru(size_t bytes_to_free);

  /// Snapshot of the cache counters.
  EvalEngineStats Stats() const;

  /// Serializes the warm predicate cache — every interned predicate in
  /// id order and the words of each resident segment — for the storage
  /// layer's warm-state snapshots. Evicted segments are skipped (they
  /// rematerialize on demand). Column views are cheap to rebuild and not
  /// exported. Safe to call concurrently with queries.
  std::string ExportCacheState() const;

  /// Seeds a freshly constructed engine (nothing interned yet) with
  /// state exported from an engine over identical table content and the
  /// same cache mode. The exported segments are re-sliced onto this
  /// engine's shard plan through the derivation row map (no rows dropped
  /// or appended), so a shard size that differs — e.g. an auto-sized
  /// plan after appends — still restores warm. Predicates intern in
  /// export order, so the dense ids — and every CATE memo keyed on
  /// them — are preserved. A segment in the compressed form an earlier
  /// release could write (tag 1) is skipped undecoded and left
  /// non-resident, like an evicted one, so it rematerializes on demand.
  /// Returns the number of segments restored. Throws StorageError:
  /// kStale on a row-count or cache-mode mismatch, kCorrupt when the
  /// payload is malformed (including a source plan whose shard size is
  /// zero or not a multiple of 64, or whose segment counts or sizes
  /// disagree with it); the engine is unusable after a throw and must be
  /// discarded (the caller rebuilds cold).
  size_t ImportCacheState(const std::string& bytes);

 private:
  struct PredicateSlot {
    SimplePredicate pred;
    mutable util::Mutex mu;  // guards `segs` / `seg_used` build/evict
    /// One entry per shard; null until materialized (or after evict).
    std::vector<std::shared_ptr<const Bitset>> segs CAUSUMX_GUARDED_BY(mu);
    /// LRU stamp per segment.
    std::vector<uint64_t> seg_used CAUSUMX_GUARDED_BY(mu);
  };
  /// Double-checked build: `ready` (acquire/release) publishes `view`
  /// after it is built under `mu` — or seeded by the derivation
  /// constructor. (A once_flag cannot express "already built": the
  /// derivation pre-fills carried views.) `view` / `distinct` are
  /// deliberately NOT GUARDED_BY: after publication they are immutable
  /// and read lock-free; the mutex only serializes the one-time build.
  struct ColumnSlot {
    util::Mutex mu;
    std::atomic<bool> ready{false};
    NumericColumnView view;
    util::Mutex distinct_mu;
    std::atomic<bool> distinct_ready{false};
    std::shared_ptr<const std::vector<Value>> distinct;
  };

  /// One predicate's cached state detached from any engine: what a
  /// derivation snapshots from its base and what a cache import decodes.
  struct SlotState {
    SimplePredicate pred;
    std::vector<std::shared_ptr<const Bitset>> segs;
    std::vector<uint64_t> seg_used;
  };

  static size_t BitsetBytes(const Bitset& bits);

  /// ANDs the pattern's cached predicate segments into `out` (a
  /// table-sized bitset); the cached-path body of Evaluate/EvaluateOn.
  void AndPatternInto(const Pattern& pattern, Bitset* out);

  /// Copies every slot's predicate and segment pointers (no bit work).
  std::vector<SlotState> SnapshotSlotsLocked() const
      CAUSUMX_REQUIRES_SHARED(intern_mu_);

  /// The row map shared by derivation and cache import. Re-slices
  /// `state`'s segments from `src_plan` onto this engine's plan, where
  /// target row r holds source row r + `dropped` while that exists and
  /// an appended row of this engine's table after it (see the
  /// derivation constructor for the per-shard rules). Returns whether
  /// any shard carried.
  bool MapRows(const ShardPlan& src_plan, size_t dropped,
               SlotState* state) const;

  /// Appends `state` (already on this engine's plan) as the next slot
  /// and byte-accounts its resident segments.
  void AdoptSlotLocked(SlotState state) CAUSUMX_REQUIRES(intern_mu_);

  /// Runs fn(shard) for every shard, pool-parallel when a pool is set.
  void RunSharded(size_t n, const std::function<void(size_t)>& fn) const;

  /// Returns every segment of the predicate, materializing (and
  /// byte-accounting) the missing ones pool-parallel, and stamping all
  /// of them as used. The returned pointers are safe against concurrent
  /// eviction.
  std::vector<std::shared_ptr<const Bitset>> SegmentsOf(PredicateId id);

  const std::shared_ptr<const Table> table_;  // never null
  const bool cache_enabled_;
  const ShardPlan plan_;
  const std::shared_ptr<ThreadPool> pool_;  // may be null (serial)

  mutable util::SharedMutex intern_mu_;
  std::unordered_map<std::string, PredicateId> ids_
      CAUSUMX_GUARDED_BY(intern_mu_);
  /// Deque: stable refs while growing. The container (growth, indexing)
  /// is guarded; a PredicateSlot* obtained under the lock stays valid
  /// after release and synchronizes on its own slot mutex.
  std::deque<PredicateSlot> slots_ CAUSUMX_GUARDED_BY(intern_mu_);
  std::deque<ColumnSlot> column_slots_;

  std::atomic<uint64_t> clock_{0};  // LRU stamp source
  std::atomic<uint64_t> n_interned_{0};
  std::atomic<uint64_t> n_materialized_{0};
  std::atomic<uint64_t> n_bitset_hits_{0};
  std::atomic<uint64_t> n_evicted_{0};
  std::atomic<uint64_t> n_extended_{0};
  std::atomic<uint64_t> n_retracted_{0};
  std::atomic<uint64_t> n_views_retracted_{0};
  std::atomic<uint64_t> n_pattern_evals_{0};
  std::atomic<uint64_t> n_bypass_evals_{0};
  std::atomic<uint64_t> n_views_built_{0};
  std::atomic<uint64_t> n_views_extended_{0};
  std::atomic<size_t> bitset_bytes_{0};
  std::atomic<size_t> view_bytes_{0};
};

}  // namespace causumx

#endif  // CAUSUMX_ENGINE_EVAL_ENGINE_H_
