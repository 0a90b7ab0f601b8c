// Engine-bound effect estimation: ATE / CATE by linear-regression
// adjustment (Section 3 and Definition 4.3 of the paper).
//
// Given a treatment pattern P_t (binary treatment indicator), an outcome
// attribute Y, a subpopulation (the rows of a grouping pattern P_g, or
// every row for the ATE), and a causal DAG, the context regresses
//     Y ~ 1 + T + Z
// inside the subpopulation, where Z is the backdoor adjustment set
// derived from the DAG (parents of the treatment attributes). The
// coefficient on T is the (C)ATE; its t-test gives the p-value an
// explanation reports. EstimationMethod::kIpw swaps in propensity
// weighting over the same adjustment set.
//
// The context holds everything EstimateCate needs that is shareable
// across calls: the EvalEngine (interned predicate bitsets, cached
// numeric column views), the causal DAG, the estimator options, and a
// memo table mapping (treatment, outcome, subpopulation) to the
// finished EffectEstimate. The lattice walk of Algorithm 2 re-estimates
// the same triples many times — the incumbent's final re-estimate,
// every atom shared between the positive and negative walks, and
// duplicate children pruned across grouping patterns all become memo
// hits.
//
// A memo miss pays only for its treated rows: the regression's normal
// equations split into a treatment-independent Gram block — the
// estimation rows, the confounder encoding and the sums over [1, Z],
// cached per (subpopulation, outcome, adjustment set) next to the memo —
// and the treatment's own row (n_T, T'Z, T'y), read in O(n_T * p).
//
// The lattice walk estimates one level at a time (EstimateCates): a
// batch of treatments over one bound subpopulation (Scope) probes the
// memo under one lock, and its misses that share a Gram block share one
// residual pass, which decodes each estimation row once and keeps one
// sum of squares per fit. EstimateCate is a batch of one.
//
// Thread-safe for concurrent EstimateCate calls; contexts are shared by
// shared_ptr between the miners, baselines, monitors and the service
// (explains and drill-downs), so they all populate one cache.

#ifndef CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_
#define CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator_types.h"
#include "dataset/pattern.h"
#include "engine/eval_engine.h"
#include "util/bitset.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace causumx {

/// Cumulative memoization counters of one context. `memo_entries` /
/// `memo_bytes` / `gram_bytes` are current (not cumulative) accounted
/// sizes.
struct EstimatorCacheStats {
  uint64_t memo_hits = 0;  ///< EstimateCate calls served from the memo
  uint64_t memo_misses = 0;  ///< EstimateCate calls that computed
  uint64_t memo_evicted = 0;  ///< entries dropped by EvictLru
  uint64_t memo_migrated = 0;  ///< entries carried by a derivation
  size_t memo_entries = 0;  ///< entries resident now
  size_t memo_bytes = 0;  ///< accounted bytes resident now
  uint64_t gram_builds = 0;  ///< Gram blocks built (cached or one-off)
  uint64_t gram_hits = 0;  ///< memo misses served by a cached Gram block
  /// Regression residual passes run: one per Gram block of a batch (a
  /// sampled or cache-bypass fit has its own), so memo misses divided by
  /// passes is the mean batch width.
  uint64_t fit_passes = 0;
  size_t gram_bytes = 0;  ///< accounted Gram-block bytes resident now

  /// Field-wise sum (a table's contexts add up in DescribeTables).
  EstimatorCacheStats& operator+=(const EstimatorCacheStats& o) {
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    memo_evicted += o.memo_evicted;
    memo_migrated += o.memo_migrated;
    memo_entries += o.memo_entries;
    memo_bytes += o.memo_bytes;
    gram_builds += o.gram_builds;
    gram_hits += o.gram_hits;
    fit_passes += o.fit_passes;
    gram_bytes += o.gram_bytes;
    return *this;
  }
};

/// Minimum table rows before EstimateCate dispatches its per-shard /
/// per-chunk loops onto the engine pool; below it the same loops run
/// inline (identical results, no task round trips on the memo-miss hot
/// path of small tables).
inline constexpr size_t kParallelEstimateRowThreshold = 1u << 17;

/// The effect estimator: one engine, one DAG, one set of options and the
/// CATE memo over them (see the file comment).
class EstimatorContext {
 public:
  /// Binds to a shared engine. A cache-bypass oracle engine also
  /// bypasses the CATE memo (every estimate recomputes).
  EstimatorContext(std::shared_ptr<EvalEngine> engine, const CausalDag& dag,
                   EstimatorOptions options);

  /// Derivation: binds to `engine`, which must be derived from `base`'s
  /// engine with the same `dropped_prefix_rows` (so interned predicate
  /// ids are preserved), and carries over, with `base`'s DAG and
  /// options, exactly the memo state that is still valid. A
  /// subpopulation with no set bit in the dropped prefix lost no rows:
  /// its bitset shifts down, zero-extends over the appended rows, and
  /// keeps its dense id, so every memo entry over it stays bit-identical
  /// to a from-scratch estimate (row values, gather order, and summation
  /// blocking are unchanged). A later query whose subpopulation gained
  /// no appended row reproduces that bit pattern and hits the carried
  /// memo; one that grew interns a fresh id and recomputes, and its
  /// stale predecessor ages out through the LRU. A subpopulation that
  /// lost rows is dropped together with its memo entries — exact
  /// invalidation. Byte accounting restarts from the carried state, so
  /// expiry shrinks resident bytes. Safe while `base` serves concurrent
  /// queries. Throws std::invalid_argument when `dropped_prefix_rows`
  /// exceeds the base rows or `engine`'s table has fewer rows than the
  /// base keeps.
  EstimatorContext(std::shared_ptr<EvalEngine> engine,
                   const EstimatorContext& base,
                   size_t dropped_prefix_rows = 0);

  EstimatorContext(const EstimatorContext&) = delete;
  EstimatorContext& operator=(const EstimatorContext&) = delete;

  /// Memoized CATE of `treatment` on `outcome` within `subpopulation`
  /// (a full mask gives the ATE). Sampling (optimization (d)) seeds
  /// deterministically from the options and the pattern. A batch of one
  /// through EstimateCates.
  EffectEstimate EstimateCate(const Pattern& treatment,
                              const std::string& outcome,
                              const Bitset& subpopulation);

  /// A subpopulation and an outcome bound for a run of EstimateCates
  /// calls (one lattice walk): the subpopulation is hashed once, and
  /// interned into the memo's id space on its first probe. Valid while
  /// the context and the bound bitset live; not shared between threads.
  class Scope {
   public:
    /// The bound subpopulation.
    const Bitset& subpopulation() const { return *subpopulation_; }

   private:
    friend class EstimatorContext;
    const Bitset* subpopulation_ = nullptr;
    bool has_outcome_ = false;  // the outcome names a column
    uint32_t outcome_col_ = 0;
    uint64_t hash_ = 0;  // subpopulation_->Hash() (cached engines only)
    uint32_t subpop_id_ = kNoSubpop;  // interned on the first probe
    uint64_t epoch_ = 0;  // subpop_epoch_ when subpop_id_ was interned
    bool has_stats_ = false;  // stats_ holds the outcome spread
    RunningStats stats_;
  };

  /// Binds `subpopulation` (kept by reference) and `outcome`.
  Scope Bind(const Bitset& subpopulation, const std::string& outcome) const;

  /// The scope's outcome over the non-null rows of its subpopulation,
  /// accumulated in row order (count, mean, spread). Computed once per
  /// (subpopulation, outcome) and kept with the interned subpopulation,
  /// so every later walk over it reuses it — a derived context's too,
  /// for a subpopulation it carried. Throws std::out_of_range when the
  /// scope's outcome names no column.
  const RunningStats& OutcomeStats(Scope& scope);

  /// Memoized CATEs of a batch of treatments over one scope. `ids` holds
  /// the treatments back to back, `arity` (>= 1) sorted engine-interned
  /// predicate ids each; `out[i]` receives the estimate of treatment i,
  /// bit-identical to EstimateCate on the same predicates. Every memo
  /// probe runs under one lock. Misses are grouped by Gram block; each
  /// group materializes its treated rows, solves one system per fit,
  /// runs one residual pass over the block's rows with a sum of squares
  /// per fit, and releases the rows again. The memo counters and LRU
  /// order come out as for the same EstimateCate calls made one by one,
  /// in batch order.
  void EstimateCates(Scope& scope, std::span<const PredicateId> ids,
                     size_t arity, EffectEstimate* out);

  /// Backdoor adjustment set the estimator would use for this treatment.
  std::set<std::string> AdjustmentSet(const Pattern& treatment,
                                      const std::string& outcome) const;

  /// The engine's table.
  const Table& table() const { return engine_->table(); }
  /// The context's own copy of the DAG.
  const CausalDag& dag() const { return dag_; }
  /// The options every estimate of this context uses.
  const EstimatorOptions& options() const { return options_; }
  /// The engine the context is bound to.
  const std::shared_ptr<EvalEngine>& engine() const { return engine_; }

  /// Accounted bytes of the CATE memo and the Gram blocks (the
  /// evictable caches).
  size_t CacheBytes() const;

  /// Evicts least-recently-used Gram blocks, then least-recently-used
  /// memo entries, until at least `bytes_to_free` accounted bytes are
  /// released (or both are empty). A block only speeds up later misses;
  /// a memo entry saves a whole one, so blocks go first. Returns the
  /// bytes actually freed. Evicted state recomputes on the next request,
  /// bit-identically.
  size_t EvictLru(size_t bytes_to_free);

  /// Snapshot of the memo counters.
  EstimatorCacheStats Stats() const;

  /// Serializes the CATE memo — the interned subpopulation bitsets and
  /// every memo entry in LRU order — for the storage layer's warm-state
  /// snapshots (Gram blocks are not stored; they rebuild on demand).
  /// Safe to call concurrently with EstimateCate.
  std::string ExportMemoState() const;

  /// Seeds a freshly constructed context (empty memo) with state
  /// exported from a context over an engine with identical table
  /// content and identical restored predicate ids (restore the engine
  /// cache first — memo keys reference its dense ids). Returns the
  /// number of entries restored. Throws StorageError: kStale when the
  /// universe or id space does not match, kCorrupt when the payload is
  /// malformed; the context must be discarded after a throw.
  size_t ImportMemoState(const std::string& bytes);

 private:
  // Exact memo key: the treatment as its sorted engine-interned predicate
  // ids (interning encodes numeric constants exactly, unlike
  // Value::ToString's 6-digit rounding) and the subpopulation as a dense
  // id assigned by exact bit-content comparison. Hash-only keys would let
  // a 64-bit collision silently return the wrong cached estimate — the
  // same bug class the top-k treated-set dedup guards against — and a
  // long-lived service memo sees enough entries to care.
  // The outcome is its column index (snapshots store its name).
  struct MemoKey {
    std::vector<PredicateId> treatment;  // sorted, interned: exact
    uint32_t outcome_col;
    uint32_t subpop_id;
  };
  // A probe for MemoKey without building one (heterogeneous lookup).
  struct MemoProbe {
    std::span<const PredicateId> treatment;
    uint32_t outcome_col;
    uint32_t subpop_id;
  };
  struct MemoKeyHash {
    using is_transparent = void;
    static size_t Of(std::span<const PredicateId> treatment,
                     uint32_t outcome_col, uint32_t subpop_id) {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (PredicateId id : treatment) h = (h ^ id) * 0x100000001B3ULL;
      h = (h ^ subpop_id) * 0x100000001B3ULL;
      h = (h ^ outcome_col) * 0x100000001B3ULL;
      return static_cast<size_t>(h);
    }
    size_t operator()(const MemoKey& k) const {
      return Of(k.treatment, k.outcome_col, k.subpop_id);
    }
    size_t operator()(const MemoProbe& k) const {
      return Of(k.treatment, k.outcome_col, k.subpop_id);
    }
  };
  struct MemoKeyEq {
    using is_transparent = void;
    static bool Eq(const MemoProbe& a, const MemoProbe& b) {
      return a.subpop_id == b.subpop_id && a.outcome_col == b.outcome_col &&
             std::equal(a.treatment.begin(), a.treatment.end(),
                        b.treatment.begin(), b.treatment.end());
    }
    static MemoProbe Of(const MemoKey& k) {
      return MemoProbe{k.treatment, k.outcome_col, k.subpop_id};
    }
    bool operator()(const MemoKey& a, const MemoKey& b) const {
      return Eq(Of(a), Of(b));
    }
    bool operator()(const MemoProbe& a, const MemoKey& b) const {
      return Eq(a, Of(b));
    }
    bool operator()(const MemoKey& a, const MemoProbe& b) const {
      return Eq(Of(a), b);
    }
    bool operator()(const MemoProbe& a, const MemoProbe& b) const {
      return Eq(a, b);
    }
  };

  // The LRU order is a doubly linked list threaded through the map's
  // nodes (node-based, so stable across rehashing): each key is stored
  // once and no list node is allocated.
  struct MemoEntry;
  using MemoNode = std::pair<const MemoKey, MemoEntry>;
  struct MemoEntry {
    EffectEstimate est;
    size_t bytes = 0;
    MemoNode* newer = nullptr;  // toward the front (most recent)
    MemoNode* older = nullptr;  // toward the back (least recent)
  };
  using MemoMap =
      std::unordered_map<MemoKey, MemoEntry, MemoKeyHash, MemoKeyEq>;

  /// Inserts an entry at the LRU front and byte-accounts it.
  void InsertMemoLocked(MemoKey key, const EffectEstimate& est)
      CAUSUMX_REQUIRES(memo_mu_);
  /// LRU list edits.
  void LinkFrontLocked(MemoNode* node) CAUSUMX_REQUIRES(memo_mu_);
  void UnlinkLocked(MemoNode* node) CAUSUMX_REQUIRES(memo_mu_);
  void MoveToFrontLocked(MemoNode* node) CAUSUMX_REQUIRES(memo_mu_);

  static size_t EntryBytes(const MemoKey& key);

  /// Accounted bytes of one subpop intern entry over a `bitset_size`-bit
  /// universe (used by both InternSubpopLocked and the derivation
  /// ctor; EvictLru credits subpop_bytes_ wholesale, so the two must
  /// agree).
  static size_t SubpopEntryBytes(size_t bitset_size);

  /// One interned subpopulation: its bits, its dense id, and the
  /// OutcomeStats computed over it so far, by outcome column.
  struct SubpopEntry {
    Bitset bits;
    uint32_t id;
    std::vector<std::pair<uint32_t, RunningStats>> outcome_stats;
  };

  /// The intern entry of a subpopulation by exact bit content (a copy of
  /// each distinct bitset is kept; distinct subpopulations are few — one
  /// per grouping pattern), added with the next dense id when absent.
  /// `hash` is the bitset's precomputed Hash() so the O(rows) hashing
  /// happens outside the lock.
  SubpopEntry& InternSubpopLocked(uint64_t hash, const Bitset& subpopulation)
      CAUSUMX_REQUIRES(memo_mu_);
  /// The intern entry of a subpopulation, or null when absent.
  SubpopEntry* FindSubpopLocked(uint64_t hash, const Bitset& subpopulation)
      CAUSUMX_REQUIRES(memo_mu_);
  /// Keeps `scope`'s computed outcome stats with `entry`.
  void KeepStatsLocked(const Scope& scope, SubpopEntry* entry)
      CAUSUMX_REQUIRES(memo_mu_);

  /// The scope's subpopulation id, interned on first use and again after
  /// eviction dropped the intern table (ids are never reused, so a stale
  /// id would still be exact, but a snapshot could not name it).
  uint32_t ScopeIdLocked(Scope& scope) CAUSUMX_REQUIRES(memo_mu_);

  /// Treatment-independent state of the fits over one (subpopulation,
  /// outcome, adjustment set); defined in the .cpp.
  struct GramBlock;
  /// `subpop_id` is the interned subpopulation, or kNoSubpop for a
  /// cache-bypass engine. `adjustment` holds the present adjustment
  /// columns' indices in adjustment-set (name) order — the design's
  /// confounder order.
  struct GramKey {
    uint32_t subpop_id;
    uint32_t outcome_col;
    std::vector<uint32_t> adjustment;

    bool operator==(const GramKey& other) const {
      return subpop_id == other.subpop_id &&
             outcome_col == other.outcome_col &&
             adjustment == other.adjustment;
    }
  };
  struct GramKeyHash {
    size_t operator()(const GramKey& k) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      h = (h ^ k.subpop_id) * 0x100000001B3ULL;
      h = (h ^ k.outcome_col) * 0x100000001B3ULL;
      for (uint32_t c : k.adjustment) h = (h ^ c) * 0x100000001B3ULL;
      return static_cast<size_t>(h);
    }
  };
  struct GramEntry {
    std::shared_ptr<const GramBlock> block;
    std::list<GramKey>::iterator lru_it;  // position in gram_lru_
    size_t bytes = 0;
  };
  static constexpr uint32_t kNoSubpop = UINT32_MAX;

  /// One memo miss of a batch.
  struct Miss {
    std::span<const PredicateId> treatment;
    EffectEstimate* est;
  };

  /// The actual estimation (regression adjustment or IPW) of `misses`,
  /// memo aside, over the scope's subpopulation: groups them by Gram
  /// block (a block of `subpop_id` is reused or cached unless it is
  /// kNoSubpop or the fits are sampled) and fits each group.
  void ComputeCates(const Scope& scope, uint32_t subpop_id,
                    const std::vector<Miss>& misses);

  /// Gathers the estimation rows (sampled when over the cap, seeded by
  /// `treatment`) and builds the block for `key`: from the cache when
  /// resident, else built and, unless sampled or uncached, inserted.
  /// `uses` is the number of misses the block serves (the counters
  /// count one build or hit per miss).
  std::shared_ptr<const GramBlock> ResolveGramBlock(
      GramKey key, const Pattern& treatment, const Bitset& subpopulation,
      const NumericColumnView& y_view, size_t uses, ThreadPool* pool);

  /// Fits the misses `group` (one Gram block) from `block`.
  void FitGroup(const GramBlock& block, const Scope& scope,
                const std::vector<Miss>& group,
                const NumericColumnView& y_view, ThreadPool* pool);

  std::shared_ptr<EvalEngine> engine_;
  CausalDag dag_;  // owned copy (DAGs are tiny; avoids lifetime traps).
  EstimatorOptions options_;

  mutable util::Mutex memo_mu_;
  MemoMap memo_ CAUSUMX_GUARDED_BY(memo_mu_);
  /// Ends of the LRU list (front = most recently used).
  MemoNode* lru_front_ CAUSUMX_GUARDED_BY(memo_mu_) = nullptr;
  MemoNode* lru_back_ CAUSUMX_GUARDED_BY(memo_mu_) = nullptr;
  size_t memo_bytes_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  /// Subpopulation intern table: Bitset::Hash bucket -> entries, with
  /// exact comparison on bucket hits. Its retained bitset copies are
  /// byte-accounted (subpop_bytes_) so the memory budget sees them, and
  /// the table is dropped wholesale whenever eviction empties the memo
  /// (no memo entry references an id then).
  std::unordered_map<uint64_t, std::vector<SubpopEntry>> subpop_ids_
      CAUSUMX_GUARDED_BY(memo_mu_);
  uint32_t next_subpop_id_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  size_t subpop_bytes_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  /// Bumped whenever the intern table is dropped (scopes re-intern).
  uint64_t subpop_epoch_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  /// Gram blocks by key, with their own lock and LRU (front = most
  /// recent), apart from the memo's so the two lookups of a miss do not
  /// contend. Ids are never reused within a context, so a key stays
  /// exact even after the intern table is dropped. A derivation starts
  /// with none.
  mutable util::Mutex gram_mu_;
  std::unordered_map<GramKey, GramEntry, GramKeyHash> gram_
      CAUSUMX_GUARDED_BY(gram_mu_);
  std::list<GramKey> gram_lru_ CAUSUMX_GUARDED_BY(gram_mu_);
  size_t gram_bytes_ CAUSUMX_GUARDED_BY(gram_mu_) = 0;
  std::atomic<uint64_t> n_gram_builds_{0};
  std::atomic<uint64_t> n_gram_hits_{0};
  std::atomic<uint64_t> n_fit_passes_{0};
  std::atomic<uint64_t> n_hits_{0};
  std::atomic<uint64_t> n_misses_{0};
  std::atomic<uint64_t> n_evicted_{0};
  std::atomic<uint64_t> n_migrated_{0};
};

}  // namespace causumx

#endif  // CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_
