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
// Thread-safe for concurrent EstimateCate calls; contexts are shared by
// shared_ptr between the miners, baselines, monitors and the service
// (explains and drill-downs), so they all populate one cache.

#ifndef CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_
#define CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator_types.h"
#include "dataset/pattern.h"
#include "engine/eval_engine.h"
#include "util/bitset.h"
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
  /// deterministically from the options and the pattern.
  EffectEstimate EstimateCate(const Pattern& treatment,
                              const std::string& outcome,
                              const Bitset& subpopulation);

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
  struct MemoKey {
    std::vector<PredicateId> treatment;  // sorted, interned: exact
    std::string outcome;
    uint32_t subpop_id;

    bool operator==(const MemoKey& other) const {
      return subpop_id == other.subpop_id && treatment == other.treatment &&
             outcome == other.outcome;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (PredicateId id : k.treatment) {
        h = (h ^ id) * 0x100000001B3ULL;
      }
      h = (h ^ k.subpop_id) * 0x100000001B3ULL;
      h ^= std::hash<std::string>{}(k.outcome) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  struct MemoEntry {
    EffectEstimate est;
    std::list<MemoKey>::iterator lru_it;  // position in lru_
    size_t bytes = 0;
  };

  static size_t EntryBytes(const MemoKey& key);

  /// Accounted bytes of one subpop intern entry over a `bitset_size`-bit
  /// universe (used by both InternSubpopLocked and the derivation
  /// ctor; EvictLru credits subpop_bytes_ wholesale, so the two must
  /// agree).
  static size_t SubpopEntryBytes(size_t bitset_size);

  /// Dense id of a subpopulation by exact bit content (a copy of each
  /// distinct bitset is kept; distinct subpopulations are few — one per
  /// grouping pattern). `hash` is the bitset's precomputed Hash() so the
  /// O(rows) hashing happens outside the lock.
  uint32_t InternSubpopLocked(uint64_t hash, const Bitset& subpopulation)
      CAUSUMX_REQUIRES(memo_mu_);

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

  /// The actual estimation (regression adjustment or IPW), memo aside.
  /// Reuses or caches the Gram block of `subpop_id` unless it is
  /// kNoSubpop or the fit is sampled.
  EffectEstimate ComputeCate(const Pattern& treatment,
                             const std::string& outcome,
                             const Bitset& subpopulation, uint32_t subpop_id);

  /// Gathers the estimation rows (sampled when over the cap) and builds
  /// the block for `key`: from the cache when resident, else built and,
  /// unless sampled or uncached, inserted.
  std::shared_ptr<const GramBlock> ResolveGramBlock(
      GramKey key, const Pattern& treatment, const Bitset& subpopulation,
      const NumericColumnView& y_view, ThreadPool* pool);

  std::shared_ptr<EvalEngine> engine_;
  CausalDag dag_;  // owned copy (DAGs are tiny; avoids lifetime traps).
  EstimatorOptions options_;

  mutable util::Mutex memo_mu_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_
      CAUSUMX_GUARDED_BY(memo_mu_);
  /// Front = most recently used.
  std::list<MemoKey> lru_ CAUSUMX_GUARDED_BY(memo_mu_);
  size_t memo_bytes_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  /// Subpopulation intern table: Bitset::Hash bucket -> (bits, id), with
  /// exact comparison on bucket hits. Its retained bitset copies are
  /// byte-accounted (subpop_bytes_) so the memory budget sees them, and
  /// the table is dropped wholesale whenever eviction empties the memo
  /// (no memo entry references an id then).
  std::unordered_map<uint64_t, std::vector<std::pair<Bitset, uint32_t>>>
      subpop_ids_ CAUSUMX_GUARDED_BY(memo_mu_);
  uint32_t next_subpop_id_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
  size_t subpop_bytes_ CAUSUMX_GUARDED_BY(memo_mu_) = 0;
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
  std::atomic<uint64_t> n_hits_{0};
  std::atomic<uint64_t> n_misses_{0};
  std::atomic<uint64_t> n_evicted_{0};
  std::atomic<uint64_t> n_migrated_{0};
};

}  // namespace causumx

#endif  // CAUSUMX_CAUSAL_ESTIMATOR_CONTEXT_H_
