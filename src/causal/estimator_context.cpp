#include "causal/estimator_context.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "causal/ols.h"
#include "storage/bytes.h"
#include "storage/storage_error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace causumx {

EstimatorContext::EstimatorContext(std::shared_ptr<EvalEngine> engine,
                                   const CausalDag& dag,
                                   EstimatorOptions options)
    : engine_(std::move(engine)), dag_(dag), options_(options) {}

EstimatorContext::EstimatorContext(std::shared_ptr<EvalEngine> engine,
                                   const EstimatorContext& base,
                                   size_t dropped_prefix_rows)
    : engine_(std::move(engine)), dag_(base.dag_), options_(base.options_) {
  const size_t dropped = dropped_prefix_rows;
  const size_t base_rows = base.engine_->table().NumRows();
  const size_t rows = engine_->table().NumRows();
  if (dropped > base_rows || rows < base_rows - dropped) {
    throw std::invalid_argument(
        "EstimatorContext derivation: engine table is not the base table "
        "minus a dropped prefix plus appended rows");
  }
  // Memo keys are only meaningful for predicate ids the new engine
  // inherited. The engine's intern table was snapshotted (in its
  // derivation constructor) before this memo is, so a query racing the
  // derivation may have interned further predicates into the base
  // engine and memoized under ids >= `known` — ids the new engine will
  // hand out to whatever predicates arrive first. Carrying such an entry
  // could silently serve one treatment's CATE for another; drop them.
  const size_t known = engine_->NumInterned();
  // Snapshot phase: base.memo_mu_ is held only to copy the raw state —
  // queries still running on the base contend with the copy, not with
  // the O(subpops x rows) bit work below (the same lock-minimizing split
  // the EvalEngine derivation uses).
  std::vector<SubpopEntry> subpops;
  // The one copy of each carried key: moved into the map below, which
  // the LRU list then points into.
  std::vector<std::pair<MemoKey, EffectEstimate>> entries;  // oldest first
  {
    util::MutexLock lock(base.memo_mu_);
    next_subpop_id_ = base.next_subpop_id_;
    for (const auto& [hash, bucket] : base.subpop_ids_) {
      subpops.insert(subpops.end(), bucket.begin(), bucket.end());
    }
    entries.reserve(base.memo_.size());
    for (const MemoNode* n = base.lru_back_; n != nullptr;
         n = n->second.newer) {
      entries.emplace_back(n->first, n->second.est);
    }
  }
  // Carry exactly the subpopulations that lost no row: their bits shift
  // down by the dropped prefix, zero-extend over the appended rows, and
  // re-bucket under the new hash, keeping their ids. A carried entry
  // stays bit-identical to a from-scratch estimate (same rows, gather
  // order and summation blocking), and a post-derivation query whose
  // subpopulation gained no appended row produces exactly the carried
  // bit pattern and hits it. Two carried subpopulations stay distinct —
  // both prefixes were empty, so they already differed in the surviving
  // range. A subpopulation that lost rows is invalidated with its memo
  // entries; one that grew interns a fresh id, and its stale
  // predecessor ages out through the LRU. A carried subpopulation keeps
  // its outcome stats: the same values in the same row order.
  std::vector<bool> id_carried(static_cast<size_t>(next_subpop_id_), false);
  subpop_ids_.reserve(subpops.size());
  for (SubpopEntry& entry : subpops) {
    Bitset& bits = entry.bits;
    if (bits.size() != base_rows) continue;          // stale universe
    if (bits.CountRange(0, dropped) != 0) continue;  // lost rows
    bits.DropPrefix(dropped);
    bits.Resize(rows);
    const uint64_t h = bits.Hash();
    subpop_bytes_ += SubpopEntryBytes(bits.size()) +
                     entry.outcome_stats.size() *
                         sizeof(std::pair<uint32_t, RunningStats>);
    if (entry.id < id_carried.size()) id_carried[entry.id] = true;
    subpop_ids_[h].push_back(std::move(entry));
  }
  // Carry the memo, preserving LRU order (`entries` runs least to most
  // recent; each insertion goes to the front). Keys are sorted, so the
  // back is the maximum predicate id.
  memo_.reserve(entries.size());
  util::MutexLock lock(memo_mu_);
  for (auto& [key, est] : entries) {
    if (!key.treatment.empty() && key.treatment.back() >= known) continue;
    if (key.subpop_id >= id_carried.size() || !id_carried[key.subpop_id]) {
      continue;
    }
    InsertMemoLocked(std::move(key), est);
  }
  n_migrated_.store(memo_.size(), std::memory_order_relaxed);
}

std::set<std::string> EstimatorContext::AdjustmentSet(
    const Pattern& treatment, const std::string& outcome) const {
  return dag_.BackdoorAdjustmentSet(treatment.Attributes(), outcome);
}

EffectEstimate EstimatorContext::EstimateCate(const Pattern& treatment,
                                              const std::string& outcome,
                                              const Bitset& subpopulation) {
  if (treatment.IsEmpty()) return EffectEstimate{};
  std::vector<PredicateId> ids;
  ids.reserve(treatment.predicates().size());
  for (const auto& p : treatment.predicates()) ids.push_back(engine_->Intern(p));
  std::sort(ids.begin(), ids.end());
  Scope scope = Bind(subpopulation, outcome);
  EffectEstimate est;
  EstimateCates(scope, ids, ids.size(), &est);
  return est;
}

EstimatorContext::Scope EstimatorContext::Bind(const Bitset& subpopulation,
                                               const std::string& outcome)
    const {
  Scope scope;
  scope.subpopulation_ = &subpopulation;
  if (auto col = engine_->table().ColumnIndex(outcome)) {
    scope.has_outcome_ = true;
    scope.outcome_col_ = static_cast<uint32_t>(*col);
  }
  if (engine_->cache_enabled()) scope.hash_ = subpopulation.Hash();
  return scope;
}

uint32_t EstimatorContext::ScopeIdLocked(Scope& scope) {
  if (scope.subpop_id_ == kNoSubpop || scope.epoch_ != subpop_epoch_) {
    SubpopEntry& entry =
        InternSubpopLocked(scope.hash_, *scope.subpopulation_);
    KeepStatsLocked(scope, &entry);
    scope.subpop_id_ = entry.id;
    scope.epoch_ = subpop_epoch_;
  }
  return scope.subpop_id_;
}

const RunningStats& EstimatorContext::OutcomeStats(Scope& scope) {
  if (!scope.has_outcome_) {
    throw std::out_of_range("OutcomeStats: the outcome names no column");
  }
  if (scope.has_stats_) return scope.stats_;
  const bool cached = engine_->cache_enabled();
  if (cached) {
    util::MutexLock lock(memo_mu_);
    if (const SubpopEntry* entry =
            FindSubpopLocked(scope.hash_, *scope.subpopulation_)) {
      for (const auto& [col, stats] : entry->outcome_stats) {
        if (col != scope.outcome_col_) continue;
        scope.stats_ = stats;
        scope.has_stats_ = true;
        return scope.stats_;
      }
    }
  }
  const Bitset& rows = *scope.subpopulation_;
  const NumericColumnView& y = engine_->Numeric(scope.outcome_col_);
  const size_t words = std::min(rows.num_words(), y.valid.num_words());
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = rows.data()[w] & y.valid.data()[w]; bits != 0;
         bits &= bits - 1) {
      scope.stats_.Add(
          y.values[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
    }
  }
  scope.has_stats_ = true;
  if (cached) {
    // Kept now if the subpopulation is interned, else when it is.
    util::MutexLock lock(memo_mu_);
    KeepStatsLocked(scope,
                    FindSubpopLocked(scope.hash_, *scope.subpopulation_));
  }
  return scope.stats_;
}

void EstimatorContext::KeepStatsLocked(const Scope& scope,
                                       SubpopEntry* entry) {
  if (!scope.has_stats_ || entry == nullptr) return;
  for (const auto& kept : entry->outcome_stats) {
    if (kept.first == scope.outcome_col_) return;
  }
  entry->outcome_stats.emplace_back(scope.outcome_col_, scope.stats_);
  subpop_bytes_ += sizeof(std::pair<uint32_t, RunningStats>);
}

void EstimatorContext::EstimateCates(Scope& scope,
                                     std::span<const PredicateId> ids,
                                     size_t arity, EffectEstimate* out) {
  const size_t k = arity == 0 ? 0 : ids.size() / arity;
  if (k == 0) return;
  auto treatment = [&](size_t i) { return ids.subspan(i * arity, arity); };
  std::vector<Miss> misses;
  // A cache-bypass engine, or an outcome that names no column (every
  // estimate is invalid, and there is no column to key it by): no memo.
  if (!engine_->cache_enabled() || !scope.has_outcome_) {
    for (size_t i = 0; i < k; ++i) {
      out[i] = EffectEstimate{};
      misses.push_back(Miss{treatment(i), &out[i]});
    }
    ComputeCates(scope, kNoSubpop, misses);
    n_misses_.fetch_add(k, std::memory_order_relaxed);
    return;
  }

  // Probe every treatment under one lock. A treatment repeated within
  // the batch is computed once; its repeats count as the hits they would
  // have been one by one.
  enum class Probe : uint8_t { kHit, kMiss, kRepeat };
  std::vector<Probe> probe(k);
  std::vector<size_t> repeat_of;  // per kRepeat, in batch order
  // First miss per treatment: batch index by treatment ids.
  std::unordered_map<MemoProbe, size_t, MemoKeyHash, MemoKeyEq> first_miss;
  uint32_t subpop_id;
  {
    util::MutexLock lock(memo_mu_);
    subpop_id = ScopeIdLocked(scope);
    std::vector<MemoNode*> hit_entries;
    for (size_t i = 0; i < k; ++i) {
      const MemoProbe key{treatment(i), scope.outcome_col_, subpop_id};
      auto it = memo_.find(key);
      if (it != memo_.end()) {
        probe[i] = Probe::kHit;
        out[i] = it->second.est;
        hit_entries.push_back(&*it);
        continue;
      }
      const auto [first, inserted] = first_miss.emplace(key, i);
      if (!inserted) {
        probe[i] = Probe::kRepeat;
        repeat_of.push_back(first->second);
        continue;
      }
      probe[i] = Probe::kMiss;
      out[i] = EffectEstimate{};
      misses.push_back(Miss{treatment(i), &out[i]});
    }
    n_hits_.fetch_add(k - misses.size(), std::memory_order_relaxed);
    if (misses.empty()) {
      for (MemoNode* node : hit_entries) MoveToFrontLocked(node);
      return;
    }
  }
  // Computed outside the lock: concurrent misses on the same key may
  // duplicate work once, but never block each other on the fits.
  ComputeCates(scope, subpop_id, misses);
  // Replay the LRU updates in batch order, as one-by-one calls make them:
  // a hit (or repeat) moves to the front, a miss is inserted there. An
  // eviction that emptied the memo meanwhile also dropped the intern
  // table; the scope re-interns, so every entry names a stored
  // subpopulation.
  {
    util::MutexLock lock(memo_mu_);
    subpop_id = ScopeIdLocked(scope);
    size_t r = 0;
    for (size_t i = 0; i < k; ++i) {
      if (probe[i] == Probe::kRepeat) out[i] = out[repeat_of[r++]];
      auto it = memo_.find(MemoProbe{treatment(i), scope.outcome_col_,
                                     subpop_id});
      if (probe[i] != Probe::kMiss) {
        if (it != memo_.end()) MoveToFrontLocked(&*it);
      } else if (it == memo_.end()) {
        const auto t = treatment(i);
        InsertMemoLocked(
            MemoKey{{t.begin(), t.end()}, scope.outcome_col_, subpop_id},
            out[i]);
      }
    }
  }
  n_misses_.fetch_add(misses.size(), std::memory_order_relaxed);
}

void EstimatorContext::InsertMemoLocked(MemoKey key,
                                        const EffectEstimate& est) {
  const size_t bytes = EntryBytes(key);
  auto it = memo_.emplace(std::move(key), MemoEntry{est, bytes}).first;
  LinkFrontLocked(&*it);
  memo_bytes_ += bytes;
}

void EstimatorContext::LinkFrontLocked(MemoNode* node) {
  node->second.newer = nullptr;
  node->second.older = lru_front_;
  if (lru_front_ != nullptr) {
    lru_front_->second.newer = node;
  } else {
    lru_back_ = node;
  }
  lru_front_ = node;
}

void EstimatorContext::UnlinkLocked(MemoNode* node) {
  MemoEntry& e = node->second;
  (e.newer != nullptr ? e.newer->second.older : lru_front_) = e.older;
  (e.older != nullptr ? e.older->second.newer : lru_back_) = e.newer;
}

void EstimatorContext::MoveToFrontLocked(MemoNode* node) {
  if (node == lru_front_) return;
  UnlinkLocked(node);
  LinkFrontLocked(node);
}

size_t EstimatorContext::EntryBytes(const MemoKey& key) {
  // Approximate footprint: the key (held once, in the map node), the
  // entry with its LRU links, and a flat allowance for the hash-map
  // node/bucket overhead.
  return sizeof(MemoKey) + key.treatment.size() * sizeof(PredicateId) +
         sizeof(MemoEntry) + 64;
}

size_t EstimatorContext::SubpopEntryBytes(size_t bitset_size) {
  return sizeof(std::pair<Bitset, uint32_t>) +
         ((bitset_size + 63) / 64) * sizeof(uint64_t) + 32;
}

EstimatorContext::SubpopEntry& EstimatorContext::InternSubpopLocked(
    uint64_t hash, const Bitset& subpopulation) {
  auto& bucket = subpop_ids_[hash];
  for (SubpopEntry& entry : bucket) {
    if (entry.bits == subpopulation) return entry;
  }
  bucket.push_back(SubpopEntry{subpopulation, next_subpop_id_++, {}});
  subpop_bytes_ += SubpopEntryBytes(subpopulation.size());
  return bucket.back();
}

EstimatorContext::SubpopEntry* EstimatorContext::FindSubpopLocked(
    uint64_t hash, const Bitset& subpopulation) {
  auto it = subpop_ids_.find(hash);
  if (it == subpop_ids_.end()) return nullptr;
  for (SubpopEntry& entry : it->second) {
    if (entry.bits == subpopulation) return &entry;
  }
  return nullptr;
}

size_t EstimatorContext::CacheBytes() const {
  size_t gram_bytes = 0;
  {
    util::MutexLock lock(gram_mu_);
    gram_bytes = gram_bytes_;
  }
  util::MutexLock lock(memo_mu_);
  return memo_bytes_ + subpop_bytes_ + gram_bytes;
}

size_t EstimatorContext::EvictLru(size_t bytes_to_free) {
  if (bytes_to_free == 0) return 0;
  size_t freed = 0;
  {
    // Misses in flight keep an evicted block alive by shared_ptr.
    util::MutexLock lock(gram_mu_);
    while (freed < bytes_to_free && !gram_lru_.empty()) {
      auto it = gram_.find(gram_lru_.back());
      freed += it->second.bytes;
      gram_bytes_ -= it->second.bytes;
      gram_.erase(it);
      gram_lru_.pop_back();
    }
  }
  util::MutexLock lock(memo_mu_);
  while (freed < bytes_to_free && lru_back_ != nullptr) {
    MemoNode* node = lru_back_;
    UnlinkLocked(node);
    freed += node->second.bytes;
    memo_bytes_ -= node->second.bytes;
    memo_.erase(memo_.find(node->first));
    n_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  // Once no memo entry references a subpopulation id, the intern table's
  // retained bitset copies are pure overhead — drop them too.
  if (memo_.empty() && subpop_bytes_ > 0) {
    freed += subpop_bytes_;
    subpop_bytes_ = 0;
    subpop_ids_.clear();
    ++subpop_epoch_;
  }
  return freed;
}

// The treatment-independent state of every regression fit over one
// (subpopulation, outcome, adjustment set). FitOls (causal/ols.cpp)
// keeps one accumulator per normal-equation entry, skips zero design
// entries, sums each entry in row order within fixed kOlsChunkRows
// chunks of the estimation rows, and merges the chunks in order. The
// entries over [1, Z] never read T's column, so their merged sums are
// the same for every treatment and are computed once here; T's row
// (n_T, T'Z, T'y) sums only treated rows, and Fit adds it per miss with
// the same chunking — so every fit is bit-identical to FitOls over the
// per-row design.
struct EstimatorContext::GramBlock {
  struct Confounder {
    const Column* codes = nullptr;  // categorical: one-hot over kept_codes
    const NumericColumnView* view = nullptr;  // numeric: the value itself
    std::vector<int32_t> kept_codes;  // levels with their own column
    std::vector<int32_t> level_of;  // code -> index in kept_codes, or -1
    size_t first = 0;  // its first column within Z
  };

  // The estimation rows as a table-sized bitset: never larger than the
  // subpopulation copy the memo's intern table already keeps.
  Bitset rows;
  size_t n = 0;  // rows.Count()
  std::vector<uint32_t> chunk_first;  // first row of each OLS chunk
  std::vector<Confounder> confounders;
  size_t m = 0;  // confounder design columns
  // Packed upper triangle of [1 Z]'[1 Z], and [1 Z]'y, over q = 1 + m
  // columns; empty when no regression fit can run over `rows`.
  std::vector<double> gram;
  std::vector<double> gram_y;

  size_t NumChunks() const { return (n + kOlsChunkRows - 1) / kOlsChunkRows; }

  // Calls f(i, r) for the estimation rows of OLS chunk c in ascending
  // order: r is the table row, i its position among the estimation rows.
  template <typename F>
  void ForEachRowOfChunk(size_t c, F&& f) const {
    size_t i = c * kOlsChunkRows;
    const size_t end = std::min(n, i + kOlsChunkRows);
    size_t w = chunk_first[c] / 64;
    uint64_t bits = rows.data()[w] & (~uint64_t{0} << (chunk_first[c] % 64));
    for (; i < end; ++i) {
      while (bits == 0) bits = rows.data()[++w];
      f(i, w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }

  // Row r's m confounder design values, as FitOls's design holds them.
  void Encode(size_t r, double* out) const {
    for (const Confounder& c : confounders) {
      if (c.view == nullptr) {
        const int32_t code = c.codes->GetCode(r);
        for (int32_t kept : c.kept_codes) *out++ = code == kept ? 1.0 : 0.0;
      } else {
        const double v = c.view->values[r];
        *out++ = std::isnan(v) ? 0.0 : v;
      }
    }
  }

  // Calls f(j, x) for row r's Z entries that can be nonzero, in column
  // order: the matching one-hot column (x = 1.0) of each categorical
  // confounder and every numeric one. The entries it skips are exact
  // zeros of the dense row Encode writes.
  template <typename F>
  void ForEachEntry(size_t r, F&& f) const {
    for (const Confounder& c : confounders) {
      if (c.view == nullptr) {
        const int32_t code = c.codes->GetCode(r);
        if (code < 0 || static_cast<size_t>(code) >= c.level_of.size()) {
          continue;
        }
        const int32_t level = c.level_of[code];
        if (level >= 0) f(c.first + static_cast<size_t>(level), 1.0);
      } else {
        const double v = c.view->values[r];
        f(c.first, std::isnan(v) ? 0.0 : v);
      }
    }
  }

  // Takes the estimation rows, then builds the confounder encoding and
  // (regression only) the [1 Z] sums. Skipped below the sizes at which
  // ComputeCate returns before fitting.
  void Build(Bitset estimation_rows, const Table& table, EvalEngine& engine,
             const std::vector<uint32_t>& adjustment,
             const NumericColumnView& y_view, const EstimatorOptions& options,
             ThreadPool* pool);

  // Solves the normal equations of Y ~ 1 + T + Z from the block and
  // `treated` (the treated rows, a superset of the block's treated
  // estimation rows): writes the p = m + 2 coefficients to `beta` and
  // returns entry (1, 1) of the inverse, or returns nullopt when the
  // system is singular.
  std::optional<double> Solve(const Bitset& treated, size_t n_treated,
                              const NumericColumnView& y_view,
                              std::vector<double>* beta) const;

  // The residual sums of squares of K solved fits over the block's rows
  // in one pass (see FitGroup): `treated[k]` and coefficients
  // `beta_t[d * K + k]` (design column d of fit k) give `rss[k]`.
  void ResidualPass(const std::vector<const Bitset*>& treated,
                    const std::vector<double>& beta_t,
                    const NumericColumnView& y_view, ThreadPool* pool,
                    double* rss) const;

  // Propensity-weighted (IPW) estimate from the block and `treated`.
  void FitIpw(const Bitset& treated, const NumericColumnView& y_view,
              double propensity_clip, EffectEstimate* est) const;

  size_t Bytes() const {
    size_t bytes = sizeof(GramBlock) + rows.num_words() * sizeof(uint64_t) +
                   chunk_first.capacity() * sizeof(uint32_t) +
                   confounders.capacity() * sizeof(Confounder) +
                   (gram.capacity() + gram_y.capacity()) * sizeof(double);
    for (const Confounder& c : confounders) {
      bytes += (c.kept_codes.capacity() + c.level_of.capacity()) *
               sizeof(int32_t);
    }
    return bytes;
  }
};

namespace {

// popcount(a & b) over their common words.
size_t CountAnd(const Bitset& a, const Bitset& b) {
  const size_t words = std::min(a.num_words(), b.num_words());
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a.data()[w] & b.data()[w]));
  }
  return count;
}

}  // namespace

void EstimatorContext::GramBlock::Build(
    Bitset estimation_rows, const Table& table, EvalEngine& engine,
    const std::vector<uint32_t>& adjustment, const NumericColumnView& y_view,
    const EstimatorOptions& options, ThreadPool* pool) {
  rows = std::move(estimation_rows);
  n = rows.Count();
  if (n < 2 * options.min_group_size) return;
  // The chunk starts: every kOlsChunkRows-th estimation row.
  for (size_t w = 0, i = 0; w < rows.num_words(); ++w) {
    for (uint64_t bits = rows.data()[w]; bits != 0; bits &= bits - 1, ++i) {
      if (i % kOlsChunkRows == 0) {
        chunk_first.push_back(static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(std::countr_zero(bits))));
      }
    }
  }
  const size_t num_chunks = NumChunks();
  // Numeric confounders enter via the cached column views; categorical
  // ones are one-hot encoded with the most frequent level dropped as
  // baseline (dense code counting; ties break by the level's dictionary
  // *string*, not its code — the string order is a function of the data
  // values alone, so the encoding survives the windowed-retention path's
  // dictionary re-coding and stays bit-identical to a from-scratch
  // rebuild over the same rows).
  for (uint32_t idx : adjustment) {
    const Column& c = table.column(idx);
    Confounder enc;
    if (c.type() == ColumnType::kCategorical) {
      std::vector<size_t> freq(c.dictionary().size(), 0);
      size_t distinct = 0;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
        ForEachRowOfChunk(chunk, [&](size_t, size_t r) {
          const int32_t code = c.GetCode(r);
          if (code != Column::kNullCode && freq[code]++ == 0) ++distinct;
        });
      }
      if (distinct < 2) continue;  // constant -> no information
      std::vector<std::pair<int32_t, size_t>> levels;
      levels.reserve(distinct);
      for (size_t code = 0; code < freq.size(); ++code) {
        if (freq[code] > 0) {
          levels.emplace_back(static_cast<int32_t>(code), freq[code]);
        }
      }
      std::sort(levels.begin(), levels.end(),
                [&c](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return c.DictString(a.first) < c.DictString(b.first);
                });
      // Drop the most frequent level (baseline) and merge the long tail.
      const size_t keep =
          std::min(options.max_onehot_levels, levels.size() - 1);
      for (size_t l = 1; l <= keep; ++l) {
        const size_t code = static_cast<size_t>(levels[l].first);
        if (code >= enc.level_of.size()) enc.level_of.resize(code + 1, -1);
        enc.level_of[code] = static_cast<int32_t>(enc.kept_codes.size());
        enc.kept_codes.push_back(levels[l].first);
      }
      enc.codes = &c;
      enc.first = m;
      m += enc.kept_codes.size();
    } else {
      enc.view = &engine.Numeric(idx);
      enc.first = m;
      ++m;
    }
    confounders.push_back(std::move(enc));
  }

  const size_t q = 1 + m;
  // ComputeCate fits only when rows > p + 1, with p = q + 1.
  if (options.method != EstimationMethod::kRegressionAdjustment ||
      n <= q + 2) {
    return;
  }
  // FitOls's loops over the design [1 Z]: per-chunk partials (chunks
  // are disjoint, so any schedule writes the same values), merged below
  // in chunk order.
  const size_t tri = q * (q + 1) / 2;
  const size_t stride = tri + q;
  std::vector<double> part(num_chunks * stride, 0.0);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    double* cx = &part[c * stride];
    double* cy = cx + tri;
    std::vector<double> x(q);
    x[0] = 1.0;
    ForEachRowOfChunk(c, [&](size_t, size_t r) {
      Encode(r, &x[1]);
      const double y = y_view.values[r];
      size_t base = 0;
      for (size_t a = 0; a < q; ++a) {
        const double xa = x[a];
        if (xa == 0.0) {
          base += q - a;
          continue;
        }
        // causumx-lint: allow(fp-accumulation) FitOls's per-chunk partial: serial row order within fixed chunk boundaries
        cy[a] += xa * y;
        for (size_t b = a; b < q; ++b) {
          // causumx-lint: allow(fp-accumulation) FitOls's per-chunk partial: serial row order within fixed chunk boundaries
          cx[base + b - a] += xa * x[b];
        }
        base += q - a;
      }
    });
  });
  gram.assign(tri, 0.0);
  gram_y.assign(q, 0.0);
  for (size_t c = 0; c < num_chunks; ++c) {
    const double* cx = &part[c * stride];
    // causumx-lint: allow(fp-accumulation) chunk merge in fixed chunk-index order, as FitOls merges
    for (size_t e = 0; e < tri; ++e) gram[e] += cx[e];
    // causumx-lint: allow(fp-accumulation) chunk merge in fixed chunk-index order, as FitOls merges
    for (size_t a = 0; a < q; ++a) gram_y[a] += cx[tri + a];
  }
}

std::optional<double> EstimatorContext::GramBlock::Solve(
    const Bitset& treated, size_t n_treated, const NumericColumnView& y_view,
    std::vector<double>* beta) const {
  const size_t q = 1 + m;
  const size_t p = q + 1;  // design [1 T Z]
  const size_t num_chunks = NumChunks();

  // T's row per chunk: [T'y, T'Z], over the treated estimation rows
  // (treated ∩ rows, a word scan). A treated row's design entry for T is
  // 1.0, so FitOls adds 1.0 * x == x to each of T's sums; the row's
  // chunk is found by comparing it with each chunk's first row. Adding
  // an exact zero leaves a sum unchanged (a sum that starts at +0.0 is
  // never -0.0), so only ForEachEntry's entries are added.
  std::vector<double> t_part(num_chunks * q, 0.0);
  const size_t words = std::min(rows.num_words(), treated.num_words());
  size_t chunk = 0;
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = rows.data()[w] & treated.data()[w]; bits != 0;
         bits &= bits - 1) {
      const size_t r = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      while (chunk + 1 < num_chunks && r >= chunk_first[chunk + 1]) ++chunk;
      double* part = &t_part[chunk * q];
      // causumx-lint: allow(fp-accumulation) FitOls's per-chunk partial: treated rows in row order within fixed chunk boundaries
      part[0] += y_view.values[r];
      // causumx-lint: allow(fp-accumulation) FitOls's per-chunk partial: treated rows in row order within fixed chunk boundaries
      ForEachEntry(r, [part](size_t j, double x) { part[1 + j] += x; });
    }
  }
  std::vector<double> t_row(q, 0.0);
  for (size_t c = 0; c < num_chunks; ++c) {
    // causumx-lint: allow(fp-accumulation) chunk merge in fixed chunk-index order, as FitOls merges
    for (size_t j = 0; j < q; ++j) t_row[j] += t_part[c * q + j];
  }

  // The normal equations of [1 T Z]. Design column d >= 2 is block
  // column d - 1; the (1, T) and (T, T) entries sum 0/1 indicators, so
  // they are exactly n_T.
  const double n_t = static_cast<double>(n_treated);
  auto gram_at = [&](size_t di, size_t dj) {  // design columns, di <= dj
    const size_t i = di == 0 ? 0 : di - 1;
    const size_t j = dj == 0 ? 0 : dj - 1;
    return gram[i * q - i * (i - 1) / 2 + (j - i)];
  };
  std::vector<double> a(p * p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      double v;
      if (j == 1) {
        v = n_t;
      } else if (i == 1) {
        v = t_row[j - 1];
      } else {
        v = gram_at(i, j);
      }
      a[i * p + j] = v;
      a[j * p + i] = v;
    }
  }
  beta->assign(p, 0.0);
  (*beta)[0] = gram_y[0];
  (*beta)[1] = t_row[0];
  for (size_t d = 2; d < p; ++d) (*beta)[d] = gram_y[d - 1];
  // Only std_errors[1] is read, so only column 1 of the inverse is solved.
  std::vector<double> inv_col;
  if (!CholeskySolve(&a, beta, 1, &inv_col)) return std::nullopt;
  return inv_col[1];
}

void EstimatorContext::GramBlock::ResidualPass(
    const std::vector<const Bitset*>& treated,
    const std::vector<double>& beta_t, const NumericColumnView& y_view,
    ThreadPool* pool, double* rss) const {
  // FitOls's residual loop, per fit: within each chunk, rows in order,
  // each row's prediction summed over its design columns in column order,
  // the chunk partials merged in chunk order. Fit k only ever touches its
  // own accumulators, so running K fits side by side — the row's Z decoded
  // once, the fits innermost — performs each fit's operations in exactly
  // FitOls's order.
  const size_t k_fits = treated.size();
  const size_t num_chunks = NumChunks();
  std::vector<double> part_rss(num_chunks * k_fits, 0.0);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    std::vector<double> zc(m);
    std::vector<double> pred(k_fits);
    double* rss_c = &part_rss[c * k_fits];
    const double* b0 = beta_t.data();
    const double* b1 = b0 + k_fits;
    ForEachRowOfChunk(c, [&](size_t, size_t r) {
      Encode(r, zc.data());
      for (size_t k = 0; k < k_fits; ++k) {
        const double t = treated[k]->Test(r) ? 1.0 : 0.0;
        pred[k] = 0.0;
        pred[k] += 1.0 * b0[k];
        pred[k] += t * b1[k];
      }
      for (size_t j = 0; j < m; ++j) {
        const double z = zc[j];
        const double* bj = &beta_t[(2 + j) * k_fits];
        // causumx-lint: allow(fp-accumulation) one row's prediction per fit, fixed column order (FitOls's)
        for (size_t k = 0; k < k_fits; ++k) pred[k] += z * bj[k];
      }
      const double y = y_view.values[r];
      for (size_t k = 0; k < k_fits; ++k) {
        const double e = y - pred[k];
        rss_c[k] += e * e;  // causumx-lint: allow(fp-accumulation) per-chunk serial partial per fit; fixed chunk boundaries
      }
    });
  });
  for (size_t k = 0; k < k_fits; ++k) rss[k] = 0.0;
  for (size_t c = 0; c < num_chunks; ++c) {
    // causumx-lint: allow(fp-accumulation) fixed chunk-index order per fit, thread-count independent
    for (size_t k = 0; k < k_fits; ++k) rss[k] += part_rss[c * k_fits + k];
  }
}

void EstimatorContext::GramBlock::FitIpw(const Bitset& treated,
                                         const NumericColumnView& y_view,
                                         double propensity_clip,
                                         EffectEstimate* out) const {
  // Propensity model: logistic regression T ~ 1 + Z fit by a few IRLS
  // (Newton) steps; the Hajek estimator with clipped weights gives the
  // effect, and its influence function the standard error.
  EffectEstimate& est = *out;
  const size_t n_rows = n;
  const size_t q = 1 + m;  // intercept + confounders
  std::vector<double> z(n_rows * q);  // row-major [1 Z]
  std::vector<uint8_t> is_treated(n_rows, 0);
  std::vector<double> y(n_rows);
  for (size_t c = 0; c < NumChunks(); ++c) {
    ForEachRowOfChunk(c, [&](size_t i, size_t r) {
      is_treated[i] = treated.Test(r) ? 1 : 0;
      z[i * q] = 1.0;
      Encode(r, &z[i * q + 1]);
      y[i] = y_view.values[r];
    });
  }
  std::vector<double> beta(q, 0.0);
  for (int iter = 0; iter < 8; ++iter) {
    // Newton step: beta += (Z^T W Z)^-1 Z^T (T - mu), W = mu(1-mu).
    std::vector<double> ztwz(q * q, 0.0);
    std::vector<double> grad(q, 0.0);
    for (size_t i = 0; i < n_rows; ++i) {
      const double* zi = &z[i * q];
      double eta = 0.0;
      for (size_t j = 0; j < q; ++j) eta += zi[j] * beta[j];
      const double mu = 1.0 / (1.0 + std::exp(-eta));
      const double w = std::max(1e-6, mu * (1.0 - mu));
      const double resid = static_cast<double>(is_treated[i]) - mu;
      for (size_t a = 0; a < q; ++a) {
        grad[a] += zi[a] * resid;
        for (size_t b = a; b < q; ++b) {
          ztwz[a * q + b] += w * zi[a] * zi[b];
        }
      }
    }
    for (size_t a = 0; a < q; ++a) {
      for (size_t b = 0; b < a; ++b) ztwz[a * q + b] = ztwz[b * q + a];
    }
    std::vector<double> step = grad;
    if (!CholeskySolve(&ztwz, &step)) break;
    double max_step = 0.0;
    for (size_t j = 0; j < q; ++j) {
      beta[j] += step[j];
      max_step = std::max(max_step, std::fabs(step[j]));
    }
    if (max_step < 1e-8) break;
  }

  const double clip = std::clamp(propensity_clip, 1e-6, 0.49);
  double sw1 = 0, sw0 = 0, sy1 = 0, sy0 = 0;
  std::vector<double> prop(n_rows);
  for (size_t i = 0; i < n_rows; ++i) {
    const double* zi = &z[i * q];
    double eta = 0.0;
    for (size_t j = 0; j < q; ++j) eta += zi[j] * beta[j];
    double e = 1.0 / (1.0 + std::exp(-eta));
    e = std::clamp(e, clip, 1.0 - clip);
    prop[i] = e;
    if (is_treated[i]) {
      const double w = 1.0 / e;
      sw1 += w;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
      sy1 += w * y[i];
    } else {
      const double w = 1.0 / (1.0 - e);
      sw0 += w;
      sy0 += w * y[i];
    }
  }
  if (sw1 <= 0 || sw0 <= 0) return;
  const double mu1 = sy1 / sw1;
  const double mu0 = sy0 / sw0;

  // Influence-function variance of the Hajek ATE.
  const double nd = static_cast<double>(n_rows);
  double var_sum = 0.0;
  for (size_t i = 0; i < n_rows; ++i) {
    const double e = prop[i];
    const double psi =
        is_treated[i] ? (y[i] - mu1) / e : -(y[i] - mu0) / (1.0 - e);
    var_sum += psi * psi;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
  }
  est.valid = true;
  est.cate = mu1 - mu0;
  est.std_error = std::sqrt(var_sum) / nd;
  est.p_value = est.std_error > 0
                    ? TwoSidedPValueZ(est.cate / est.std_error)
                    : 1.0;
  est.n_used = n_rows;
}

std::shared_ptr<const EstimatorContext::GramBlock>
EstimatorContext::ResolveGramBlock(GramKey key, const Pattern& treatment,
                                   const Bitset& subpopulation,
                                   const NumericColumnView& y_view,
                                   size_t uses, ThreadPool* pool) {
  const bool cacheable = key.subpop_id != kNoSubpop;
  if (cacheable) {
    util::MutexLock lock(gram_mu_);
    auto it = gram_.find(key);
    if (it != gram_.end()) {
      gram_lru_.splice(gram_lru_.begin(), gram_lru_, it->second.lru_it);
      n_gram_hits_.fetch_add(uses, std::memory_order_relaxed);
      return it->second.block;
    }
  }
  // Estimation rows: the subpopulation's rows with a non-null outcome.
  Bitset rows = subpopulation;
  rows &= y_view.valid;
  // Optimization (d): sample large subpopulations for CATE estimation.
  // The sample is seeded by the treatment, so its block serves this fit
  // alone and is not cached.
  bool sampled = false;
  const size_t count = rows.Count();
  if (options_.sample_cap > 0 && count > options_.sample_cap) {
    const std::vector<size_t> all = rows.ToIndices();
    Rng rng(options_.sample_seed ^ treatment.Hash());
    Bitset chosen(rows.size());
    for (size_t i : rng.SampleIndices(count, options_.sample_cap)) {
      chosen.Set(all[i]);
    }
    rows = std::move(chosen);
    sampled = true;
  }
  auto block = std::make_shared<GramBlock>();
  block->Build(std::move(rows), engine_->table(), *engine_, key.adjustment,
               y_view, options_, pool);
  n_gram_builds_.fetch_add(1, std::memory_order_relaxed);
  n_gram_hits_.fetch_add(uses - 1, std::memory_order_relaxed);
  if (!cacheable || sampled) return block;

  util::MutexLock lock(gram_mu_);
  // A concurrent miss may have inserted the same (bit-identical) block.
  if (gram_.find(key) == gram_.end()) {
    gram_lru_.push_front(key);
    // The key is held twice (map node and LRU node), plus a flat
    // allowance for the nodes, the bucket and the shared_ptr control
    // block.
    const size_t bytes =
        block->Bytes() +
        2 * (sizeof(GramKey) + key.adjustment.size() * sizeof(uint32_t)) +
        sizeof(GramEntry) + 3 * sizeof(void*) + 96;
    gram_bytes_ += bytes;
    gram_.emplace(std::move(key),
                  GramEntry{block, gram_lru_.begin(), bytes});
  }
  return block;
}

void EstimatorContext::ComputeCates(const Scope& scope, uint32_t subpop_id,
                                    const std::vector<Miss>& misses) {
  if (!scope.has_outcome_) return;  // every estimate stays invalid
  const Table& table = engine_->table();
  const Bitset& subpopulation = *scope.subpopulation_;
  const NumericColumnView& y_view = engine_->Numeric(scope.outcome_col_);
  // Dispatch gate: estimates run thousands of times per query, and for
  // small tables the per-call task round trip outweighs the scan it
  // splits. The serial branch executes the identical per-chunk
  // computation, so results never depend on the gate.
  ThreadPool* pool =
      table.NumRows() >= kParallelEstimateRowThreshold ? engine_->pool()
                                                       : nullptr;
  // Every fit over one subpopulation and outcome is sampled, or none is;
  // sampled and cache-bypass fits each build a block of their own.
  const bool shared =
      subpop_id != kNoSubpop &&
      !(options_.sample_cap > 0 &&
        CountAnd(subpopulation, y_view.valid) > options_.sample_cap);

  // Group the misses by Gram key, in order of first appearance. The
  // backdoor adjustment set Z comes from the DAG (parents of the
  // treatment attributes), as column indices in the set's name order; a
  // DAG node without a data column (latent) is skipped.
  struct Group {
    GramKey key;
    Pattern treatment;  // the group's first (seeds a sampled block)
    std::vector<Miss> misses;
  };
  const std::string& outcome = table.column(scope.outcome_col_).name();
  std::vector<Group> groups;
  std::unordered_map<GramKey, size_t, GramKeyHash> group_of;
  for (const Miss& miss : misses) {
    std::vector<SimplePredicate> preds;
    preds.reserve(miss.treatment.size());
    for (PredicateId id : miss.treatment) {
      preds.push_back(engine_->Predicate(id));
    }
    Pattern treatment(std::move(preds));
    GramKey key{subpop_id, scope.outcome_col_, {}};
    for (const auto& name : AdjustmentSet(treatment, outcome)) {
      if (auto idx = table.ColumnIndex(name)) {
        key.adjustment.push_back(static_cast<uint32_t>(*idx));
      }
    }
    if (shared) {
      const auto [it, inserted] = group_of.emplace(key, groups.size());
      if (!inserted) {
        groups[it->second].misses.push_back(miss);
        continue;
      }
    }
    groups.push_back(Group{std::move(key), std::move(treatment), {miss}});
  }
  for (Group& group : groups) {
    const std::shared_ptr<const GramBlock> block =
        ResolveGramBlock(std::move(group.key), group.treatment, subpopulation,
                         y_view, group.misses.size(), pool);
    FitGroup(*block, scope, group.misses, y_view, pool);
  }
}

void EstimatorContext::FitGroup(const GramBlock& block, const Scope& scope,
                                const std::vector<Miss>& group,
                                const NumericColumnView& y_view,
                                ThreadPool* pool) {
  const size_t n_rows = block.n;
  if (n_rows < 2 * options_.min_group_size) return;
  const size_t p = 2 + block.m;  // intercept + T + confounders
  // The treated rows are materialized for at most kFitsPerPass misses at
  // a time and released after their residual pass.
  constexpr size_t kFitsPerPass = 64;
  for (size_t begin = 0; begin < group.size(); begin += kFitsPerPass) {
    const size_t end = std::min(group.size(), begin + kFitsPerPass);
    std::vector<Bitset> treated(end - begin);
    std::vector<const Bitset*> fit_treated;
    std::vector<EffectEstimate*> fit_est;
    std::vector<double> fit_beta;  // p per solved fit, fit-major
    std::vector<double> fit_inv;  // entry (1, 1) of each inverse
    for (size_t i = begin; i < end; ++i) {
      EffectEstimate& est = *group[i].est;
      // Treated rows from the engine's cached bitsets (bit-identical to
      // row-at-a-time Matches; see the engine property tests); the
      // treated estimation rows are those of the block's rows.
      Bitset& rows = treated[i - begin];
      rows = engine_->EvaluateOn(group[i].treatment, *scope.subpopulation_);
      const size_t n_treated = CountAnd(rows, block.rows);
      const size_t n_control = n_rows - n_treated;
      est.n_treated = n_treated;
      est.n_control = n_control;
      // Overlap (Eq. 4): both groups must be represented.
      if (n_treated < options_.min_group_size ||
          n_control < options_.min_group_size) {
        continue;
      }
      if (n_rows <= p + 1) continue;
      if (options_.method != EstimationMethod::kRegressionAdjustment) {
        block.FitIpw(rows, y_view, options_.propensity_clip, &est);
        continue;
      }
      std::vector<double> beta;
      const std::optional<double> inv11 =
          block.Solve(rows, n_treated, y_view, &beta);
      if (!inv11) continue;  // singular: the estimate stays invalid
      fit_treated.push_back(&rows);
      fit_est.push_back(&est);
      fit_beta.insert(fit_beta.end(), beta.begin(), beta.end());
      fit_inv.push_back(*inv11);
    }
    const size_t k_fits = fit_treated.size();
    if (k_fits == 0) continue;
    // The coefficients transposed, design column-major, for the pass.
    std::vector<double> beta_t(p * k_fits);
    for (size_t k = 0; k < k_fits; ++k) {
      for (size_t d = 0; d < p; ++d) beta_t[d * k_fits + k] = fit_beta[k * p + d];
    }
    std::vector<double> rss(k_fits);
    block.ResidualPass(fit_treated, beta_t, y_view, pool, rss.data());
    n_fit_passes_.fetch_add(1, std::memory_order_relaxed);
    const double dof = static_cast<double>(n_rows - p);
    for (size_t k = 0; k < k_fits; ++k) {
      const double beta1 = fit_beta[k * p + 1];
      const double var = rss[k] / dof * fit_inv[k];
      const double se = var > 0 ? std::sqrt(var) : 0.0;
      EffectEstimate& est = *fit_est[k];
      est.valid = true;
      est.cate = beta1;
      est.std_error = se;
      est.p_value = TwoSidedPValueT(se <= 0.0 ? 0.0 : beta1 / se, dof);
      est.n_used = n_rows;
    }
  }
}

EstimatorCacheStats EstimatorContext::Stats() const {
  EstimatorCacheStats s;
  s.memo_hits = n_hits_.load(std::memory_order_relaxed);
  s.memo_misses = n_misses_.load(std::memory_order_relaxed);
  s.memo_evicted = n_evicted_.load(std::memory_order_relaxed);
  s.memo_migrated = n_migrated_.load(std::memory_order_relaxed);
  s.gram_builds = n_gram_builds_.load(std::memory_order_relaxed);
  s.gram_hits = n_gram_hits_.load(std::memory_order_relaxed);
  s.fit_passes = n_fit_passes_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(gram_mu_);
    s.gram_bytes = gram_bytes_;
  }
  util::MutexLock lock(memo_mu_);
  s.memo_entries = memo_.size();
  s.memo_bytes = memo_bytes_;
  return s;
}

namespace {

void PutBitset(ByteWriter* w, const Bitset& bits) {
  w->PutVarint(bits.size());
  for (size_t i = 0; i < (bits.size() + 63) / 64; ++i) {
    w->PutU64(bits.data()[i]);
  }
}

Bitset GetBitset(ByteReader* r) {
  const uint64_t n = r->GetVarint();
  const uint64_t n_words = (n + 63) / 64;
  if (n_words > r->remaining() / 8) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: truncated bitset");
  }
  Bitset bits(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n_words; ++i) bits.mutable_data()[i] = r->GetU64();
  if ((n & 63) != 0 && n_words > 0 &&
      (bits.data()[n_words - 1] & ~((uint64_t{1} << (n & 63)) - 1)) != 0) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: bitset padding bits set");
  }
  return bits;
}

}  // namespace

std::string EstimatorContext::ExportMemoState() const {
  // Copy under the lock, serialize outside it (the same lock-minimizing
  // split as the derivation constructor).
  std::vector<std::pair<uint32_t, Bitset>> subpops;
  std::vector<std::pair<MemoKey, EffectEstimate>> entries;  // oldest first
  uint32_t next_id = 0;
  {
    util::MutexLock lock(memo_mu_);
    next_id = next_subpop_id_;
    for (const auto& [hash, bucket] : subpop_ids_) {
      for (const SubpopEntry& e : bucket) subpops.emplace_back(e.id, e.bits);
    }
    entries.reserve(memo_.size());
    for (const MemoNode* n = lru_back_; n != nullptr; n = n->second.newer) {
      entries.emplace_back(n->first, n->second.est);
    }
  }
  // The intern table iterates in unordered_map order; sort by id so the
  // exported bytes are deterministic for identical cache state.
  std::sort(subpops.begin(), subpops.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  ByteWriter w;
  w.PutU64(engine_->table().NumRows());
  w.PutVarint(engine_->NumInterned());
  w.PutVarint(next_id);
  w.PutVarint(subpops.size());
  for (const auto& [id, bits] : subpops) {
    w.PutVarint(id);
    PutBitset(&w, bits);
  }
  w.PutVarint(entries.size());
  for (const auto& [key, est] : entries) {
    w.PutVarint(key.treatment.size());
    for (PredicateId id : key.treatment) w.PutVarint(id);
    w.PutString(engine_->table().column(key.outcome_col).name());
    w.PutVarint(key.subpop_id);
    w.PutU8(est.valid ? 1 : 0);
    w.PutDouble(est.cate);
    w.PutDouble(est.std_error);
    w.PutDouble(est.p_value);
    w.PutVarint(est.n_treated);
    w.PutVarint(est.n_control);
    w.PutVarint(est.n_used);
  }
  return w.TakeBytes();
}

size_t EstimatorContext::ImportMemoState(const std::string& bytes) {
  ByteReader r(bytes);
  const size_t rows = engine_->table().NumRows();
  if (r.GetU64() != rows) {
    throw StorageError(StorageErrorKind::kStale,
                       "memo state: universe size mismatch");
  }
  // The memo keys reference the engine's dense predicate ids; every id
  // the exporting engine knew must already be interned here (restore
  // the engine cache first).
  const uint64_t known = r.GetVarint();
  if (known > engine_->NumInterned()) {
    throw StorageError(StorageErrorKind::kStale,
                       "memo state: predicate id space mismatch");
  }
  const uint64_t next_id = r.GetVarint();
  const uint64_t n_subpops = r.GetVarint();
  if (n_subpops > next_id || n_subpops > bytes.size()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: implausible subpopulation count");
  }

  util::MutexLock lock(memo_mu_);
  if (!memo_.empty() || next_subpop_id_ != 0) {
    throw std::logic_error(
        "EstimatorContext::ImportMemoState requires a fresh context");
  }
  // Export writes subpopulations sorted by id, so strict ascending order
  // doubles as the uniqueness check and keeps membership tests a binary
  // search (no allocation sized from untrusted counts).
  std::vector<uint64_t> subpop_ids_seen;
  subpop_ids_seen.reserve(static_cast<size_t>(n_subpops));
  for (uint64_t i = 0; i < n_subpops; ++i) {
    const uint64_t id = r.GetVarint();
    if (id >= next_id ||
        (!subpop_ids_seen.empty() && id <= subpop_ids_seen.back())) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: bad subpopulation id");
    }
    subpop_ids_seen.push_back(id);
    Bitset bits = GetBitset(&r);
    if (bits.size() != rows) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: subpopulation universe mismatch");
    }
    const uint64_t h = bits.Hash();
    subpop_bytes_ += SubpopEntryBytes(bits.size());
    subpop_ids_[h].push_back(
        SubpopEntry{std::move(bits), static_cast<uint32_t>(id), {}});
  }
  next_subpop_id_ = static_cast<uint32_t>(next_id);

  const uint64_t n_entries = r.GetVarint();
  if (n_entries > bytes.size()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: implausible entry count");
  }
  for (uint64_t i = 0; i < n_entries; ++i) {
    MemoKey key;
    const uint64_t n_ids = r.GetVarint();
    if (n_ids > known) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: implausible treatment arity");
    }
    key.treatment.reserve(n_ids);
    for (uint64_t j = 0; j < n_ids; ++j) {
      const uint64_t id = r.GetVarint();
      if (id >= known ||
          (!key.treatment.empty() && id <= key.treatment.back())) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "memo state: treatment ids not sorted in range");
      }
      key.treatment.push_back(static_cast<PredicateId>(id));
    }
    const auto outcome_col = engine_->table().ColumnIndex(r.GetString());
    const uint64_t subpop = r.GetVarint();
    if (!std::binary_search(subpop_ids_seen.begin(), subpop_ids_seen.end(),
                            subpop)) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: entry references unknown subpopulation");
    }
    key.subpop_id = static_cast<uint32_t>(subpop);

    EffectEstimate est;
    est.valid = r.GetU8() != 0;
    est.cate = r.GetDouble();
    est.std_error = r.GetDouble();
    est.p_value = r.GetDouble();
    est.n_treated = static_cast<size_t>(r.GetVarint());
    est.n_control = static_cast<size_t>(r.GetVarint());
    est.n_used = static_cast<size_t>(r.GetVarint());
    // An outcome that names no column can only have memoized an invalid
    // estimate, which every lookup recomputes for free: not restored.
    if (!outcome_col) continue;
    key.outcome_col = static_cast<uint32_t>(*outcome_col);
    if (memo_.count(key) != 0) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: duplicate entry");
    }
    // Entries arrive oldest first; inserting each at the front
    // reproduces the exported LRU order.
    InsertMemoLocked(std::move(key), est);
  }
  if (!r.AtEnd()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: trailing bytes");
  }
  n_migrated_.store(memo_.size(), std::memory_order_relaxed);
  return memo_.size();
}

}  // namespace causumx
