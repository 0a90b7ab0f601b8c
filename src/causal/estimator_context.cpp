#include "causal/estimator_context.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
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
  std::vector<std::pair<Bitset, uint32_t>> subpops;
  std::vector<std::pair<MemoKey, MemoEntry>> entries;  // LRU, oldest first
  {
    util::MutexLock lock(base.memo_mu_);
    next_subpop_id_ = base.next_subpop_id_;
    for (const auto& [hash, bucket] : base.subpop_ids_) {
      for (const auto& [bits, id] : bucket) subpops.emplace_back(bits, id);
    }
    entries.reserve(base.memo_.size());
    for (auto it = base.lru_.rbegin(); it != base.lru_.rend(); ++it) {
      entries.emplace_back(*it, base.memo_.find(*it)->second);
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
  // predecessor ages out through the LRU.
  std::vector<bool> id_carried(static_cast<size_t>(next_subpop_id_), false);
  for (auto& [bits, id] : subpops) {
    if (bits.size() != base_rows) continue;          // stale universe
    if (bits.CountRange(0, dropped) != 0) continue;  // lost rows
    bits.DropPrefix(dropped);
    bits.Resize(rows);
    const uint64_t h = bits.Hash();
    subpop_bytes_ += SubpopEntryBytes(bits.size());
    if (id < id_carried.size()) id_carried[id] = true;
    subpop_ids_[h].emplace_back(std::move(bits), id);
  }
  // Carry the memo, preserving LRU order (`entries` runs least to most
  // recent; each push_front leaves the most recent at the front). Keys
  // are sorted, so the back is the maximum predicate id.
  for (auto& [key, src] : entries) {
    if (!key.treatment.empty() && key.treatment.back() >= known) continue;
    if (key.subpop_id >= id_carried.size() || !id_carried[key.subpop_id]) {
      continue;
    }
    lru_.push_front(key);
    MemoEntry entry{std::move(src.est), lru_.begin(), src.bytes};
    memo_bytes_ += entry.bytes;
    memo_.emplace(std::move(key), std::move(entry));
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
  if (!engine_->cache_enabled()) {
    n_misses_.fetch_add(1, std::memory_order_relaxed);
    return ComputeCate(treatment, outcome, subpopulation);
  }
  MemoKey key;
  key.treatment.reserve(treatment.predicates().size());
  for (const auto& p : treatment.predicates()) {
    key.treatment.push_back(engine_->Intern(p));
  }
  std::sort(key.treatment.begin(), key.treatment.end());
  key.outcome = outcome;
  const uint64_t subpop_hash = subpopulation.Hash();  // O(rows), unlocked
  {
    util::MutexLock lock(memo_mu_);
    key.subpop_id = InternSubpopLocked(subpop_hash, subpopulation);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      n_hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.est;
    }
  }
  // Computed outside the lock: concurrent misses on the same key may
  // duplicate work once, but never block each other on the OLS solve.
  const EffectEstimate est = ComputeCate(treatment, outcome, subpopulation);
  {
    util::MutexLock lock(memo_mu_);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      lru_.push_front(key);
      MemoEntry entry{est, lru_.begin(), EntryBytes(key)};
      memo_bytes_ += entry.bytes;
      memo_.emplace(std::move(key), std::move(entry));
    }
  }
  n_misses_.fetch_add(1, std::memory_order_relaxed);
  return est;
}

size_t EstimatorContext::EntryBytes(const MemoKey& key) {
  // Approximate footprint: key + estimate payload, the LRU list node, and
  // a flat allowance for the hash-map node/bucket overhead. The key is
  // stored twice (map node + LRU list node).
  return 2 * (sizeof(MemoKey) + key.outcome.size() +
              key.treatment.size() * sizeof(PredicateId)) +
         sizeof(MemoEntry) + 3 * sizeof(void*) + 64;
}

size_t EstimatorContext::SubpopEntryBytes(size_t bitset_size) {
  return sizeof(std::pair<Bitset, uint32_t>) +
         ((bitset_size + 63) / 64) * sizeof(uint64_t) + 32;
}

uint32_t EstimatorContext::InternSubpopLocked(uint64_t hash,
                                              const Bitset& subpopulation) {
  auto& bucket = subpop_ids_[hash];
  for (const auto& [bits, id] : bucket) {
    if (bits == subpopulation) return id;
  }
  const uint32_t id = next_subpop_id_++;
  bucket.emplace_back(subpopulation, id);
  subpop_bytes_ += SubpopEntryBytes(subpopulation.size());
  return id;
}

size_t EstimatorContext::CacheBytes() const {
  util::MutexLock lock(memo_mu_);
  return memo_bytes_ + subpop_bytes_;
}

size_t EstimatorContext::EvictLru(size_t bytes_to_free) {
  if (bytes_to_free == 0) return 0;
  util::MutexLock lock(memo_mu_);
  size_t freed = 0;
  while (freed < bytes_to_free && !lru_.empty()) {
    auto it = memo_.find(lru_.back());
    freed += it->second.bytes;
    memo_bytes_ -= it->second.bytes;
    memo_.erase(it);
    lru_.pop_back();
    n_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  // Once no memo entry references a subpopulation id, the intern table's
  // retained bitset copies are pure overhead — drop them too.
  if (memo_.empty() && subpop_bytes_ > 0) {
    freed += subpop_bytes_;
    subpop_bytes_ = 0;
    subpop_ids_.clear();
  }
  return freed;
}

EffectEstimate EstimatorContext::ComputeCate(const Pattern& treatment,
                                             const std::string& outcome,
                                             const Bitset& subpopulation) {
  EffectEstimate est;
  const Table& table = engine_->table();
  const auto y_idx = table.ColumnIndex(outcome);
  if (!y_idx) return est;
  const NumericColumnView& y_view = engine_->Numeric(*y_idx);

  // Candidate rows: subpopulation with non-null outcome. Collected as
  // per-shard sufficient statistics — each shard gathers its own index
  // range and the concatenation in shard order is exactly the ascending
  // serial scan, so the estimate is independent of the plan.
  const ShardPlan& plan = engine_->plan();
  // Dispatch gate: EstimateCate runs thousands of times per query, and
  // for small tables the per-call task round trip outweighs the scan it
  // splits. The serial branch executes the identical per-shard
  // computation, so results never depend on the gate.
  ThreadPool* pool =
      table.NumRows() >= kParallelEstimateRowThreshold ? engine_->pool()
                                                       : nullptr;
  const size_t num_shards = plan.NumShards();
  std::vector<std::vector<size_t>> shard_rows(num_shards);
  ThreadPool::RunOn(pool, num_shards, [&](size_t s) {
    std::vector<size_t> local;
    subpopulation.AppendIndicesInRange(plan.ShardBegin(s), plan.ShardEnd(s),
                                       &local);
    std::vector<size_t>& keep = shard_rows[s];
    keep.reserve(local.size());
    for (size_t r : local) {
      if (y_view.valid.Test(r)) keep.push_back(r);
    }
  });
  std::vector<size_t> rows;
  rows.reserve(subpopulation.Count());
  for (auto& part : shard_rows) {
    rows.insert(rows.end(), part.begin(), part.end());
  }

  // Optimization (d): sample large subpopulations for CATE estimation.
  if (options_.sample_cap > 0 && rows.size() > options_.sample_cap) {
    Rng rng(options_.sample_seed ^ treatment.Hash());
    std::vector<size_t> chosen =
        rng.SampleIndices(rows.size(), options_.sample_cap);
    std::vector<size_t> sampled;
    sampled.reserve(chosen.size());
    for (size_t i : chosen) sampled.push_back(rows[i]);
    std::sort(sampled.begin(), sampled.end());
    rows = std::move(sampled);
  }
  if (rows.size() < 2 * options_.min_group_size) return est;

  // Treatment indicator from the engine's cached bitsets (bit-identical
  // to row-at-a-time Matches; see the engine property tests). The fill
  // and the treated count are chunked per-shard statistics: element
  // writes are disjoint and the counts are integers, so any schedule
  // sums to the same value.
  const Bitset treated_bits = engine_->EvaluateOn(treatment, subpopulation);
  std::vector<uint8_t> treated(rows.size(), 0);
  const size_t num_chunks = (rows.size() + kOlsChunkRows - 1) / kOlsChunkRows;
  std::vector<size_t> chunk_treated(num_chunks, 0);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    size_t count = 0;
    const size_t end = std::min(rows.size(), (c + 1) * kOlsChunkRows);
    for (size_t i = c * kOlsChunkRows; i < end; ++i) {
      treated[i] = treated_bits.Test(rows[i]) ? 1 : 0;
      count += treated[i];
    }
    chunk_treated[c] = count;
  });
  size_t n_treated = 0;
  for (size_t count : chunk_treated) n_treated += count;
  const size_t n_control = rows.size() - n_treated;
  est.n_treated = n_treated;
  est.n_control = n_control;
  // Overlap (Eq. 4): both groups must be represented.
  if (n_treated < options_.min_group_size ||
      n_control < options_.min_group_size) {
    return est;
  }

  // Backdoor adjustment set Z from the DAG: parents of treatment attrs.
  const std::set<std::string> adjustment = AdjustmentSet(treatment, outcome);

  // Assemble design matrix columns: intercept, T, then confounders.
  // Numeric confounders enter via the cached column views; categorical
  // ones are one-hot encoded with the most frequent level dropped as
  // baseline (dense code counting; ties break by the level's dictionary
  // *string*, not its code — the string order is a function of the data
  // values alone, so the encoding survives the windowed-retention path's
  // dictionary re-coding and stays bit-identical to a from-scratch
  // rebuild over the same rows).
  struct Encoded {
    const Column* col;
    const NumericColumnView* view;
    bool categorical;
    std::vector<int32_t> kept_codes;  // categorical: levels with own column
  };
  std::vector<Encoded> confounders;
  size_t extra_cols = 0;
  for (const auto& name : adjustment) {
    auto idx = table.ColumnIndex(name);
    if (!idx) continue;  // DAG node without a data column (latent): skip.
    const Column& c = table.column(*idx);
    Encoded enc;
    enc.col = &c;
    enc.view = nullptr;
    enc.categorical = (c.type() == ColumnType::kCategorical);
    if (enc.categorical) {
      // Count level frequencies within the estimation rows (dense array
      // over the dictionary instead of a hash map).
      std::vector<size_t> freq(c.dictionary().size(), 0);
      size_t distinct = 0;
      for (size_t r : rows) {
        const int32_t code = c.GetCode(r);
        if (code == Column::kNullCode) continue;
        if (freq[code]++ == 0) ++distinct;
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
          std::min(options_.max_onehot_levels, levels.size() - 1);
      for (size_t l = 1; l <= keep; ++l) {
        enc.kept_codes.push_back(levels[l].first);
      }
      extra_cols += enc.kept_codes.size();
    } else {
      enc.view = &engine_->Numeric(*idx);
      ++extra_cols;
    }
    confounders.push_back(std::move(enc));
  }

  const size_t p = 2 + extra_cols;  // intercept + T + confounders
  if (rows.size() <= p + 1) return est;

  // Fills row i of a design whose first column is the intercept and whose
  // confounder block starts at `offset`.
  auto fill_confounders = [&](DesignMatrix* x, size_t i, size_t r,
                              size_t offset) {
    size_t col = offset;
    for (const auto& enc : confounders) {
      if (enc.categorical) {
        const int32_t code = enc.col->GetCode(r);
        for (int32_t kept : enc.kept_codes) {
          x->At(i, col++) = (code == kept) ? 1.0 : 0.0;
        }
      } else {
        const double v = enc.view->values[r];
        x->At(i, col++) = std::isnan(v) ? 0.0 : v;
      }
    }
  };

  std::vector<double> y(rows.size());
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    const size_t end = std::min(rows.size(), (c + 1) * kOlsChunkRows);
    for (size_t i = c * kOlsChunkRows; i < end; ++i) {
      y[i] = y_view.values[rows[i]];
    }
  });

  if (options_.method == EstimationMethod::kRegressionAdjustment) {
    DesignMatrix x(rows.size(), p);
    // Row-disjoint design assembly; the fit itself reduces per-chunk
    // partials in fixed order (see FitOls), so the estimate is
    // bit-identical at any thread count.
    ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
      const size_t end = std::min(rows.size(), (c + 1) * kOlsChunkRows);
      for (size_t i = c * kOlsChunkRows; i < end; ++i) {
        x.At(i, 0) = 1.0;
        x.At(i, 1) = treated[i];
        fill_confounders(&x, i, rows[i], 2);
      }
    });
    const OlsResult fit = FitOls(x, y, pool);
    if (!fit.ok) return est;
    est.valid = true;
    est.cate = fit.coefficients[1];
    est.std_error = fit.std_errors[1];
    est.p_value = fit.PValue(1);
    est.n_used = rows.size();
    return est;
  }

  // --- Inverse propensity weighting ---------------------------------------
  // Propensity model: logistic regression T ~ 1 + Z fit by a few IRLS
  // (Newton) steps; the Hajek estimator with clipped weights gives the
  // effect, and its influence function the standard error.
  const size_t q = 1 + extra_cols;  // intercept + confounders
  DesignMatrix z(rows.size(), q);
  ThreadPool::RunOn(pool, num_chunks, [&](size_t c) {
    const size_t end = std::min(rows.size(), (c + 1) * kOlsChunkRows);
    for (size_t i = c * kOlsChunkRows; i < end; ++i) {
      z.At(i, 0) = 1.0;
      fill_confounders(&z, i, rows[i], 1);
    }
  });
  std::vector<double> beta(q, 0.0);
  for (int iter = 0; iter < 8; ++iter) {
    // Newton step: beta += (Z^T W Z)^-1 Z^T (T - mu), W = mu(1-mu).
    std::vector<std::vector<double>> ztwz(q, std::vector<double>(q, 0.0));
    std::vector<double> grad(q, 0.0);
    for (size_t i = 0; i < rows.size(); ++i) {
      double eta = 0.0;
      for (size_t j = 0; j < q; ++j) eta += z.At(i, j) * beta[j];
      const double mu = 1.0 / (1.0 + std::exp(-eta));
      const double w = std::max(1e-6, mu * (1.0 - mu));
      const double resid = static_cast<double>(treated[i]) - mu;
      for (size_t a = 0; a < q; ++a) {
        grad[a] += z.At(i, a) * resid;
        for (size_t b = a; b < q; ++b) {
          ztwz[a][b] += w * z.At(i, a) * z.At(i, b);
        }
      }
    }
    for (size_t a = 0; a < q; ++a) {
      for (size_t b = 0; b < a; ++b) ztwz[a][b] = ztwz[b][a];
    }
    std::vector<double> step = grad;
    if (!SolveSpd(&ztwz, &step)) break;
    double max_step = 0.0;
    for (size_t j = 0; j < q; ++j) {
      beta[j] += step[j];
      max_step = std::max(max_step, std::fabs(step[j]));
    }
    if (max_step < 1e-8) break;
  }

  const double clip = std::clamp(options_.propensity_clip, 1e-6, 0.49);
  double sw1 = 0, sw0 = 0, sy1 = 0, sy0 = 0;
  std::vector<double> prop(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    double eta = 0.0;
    for (size_t j = 0; j < q; ++j) eta += z.At(i, j) * beta[j];
    double e = 1.0 / (1.0 + std::exp(-eta));
    e = std::clamp(e, clip, 1.0 - clip);
    prop[i] = e;
    if (treated[i]) {
      const double w = 1.0 / e;
      sw1 += w;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
      sy1 += w * y[i];
    } else {
      const double w = 1.0 / (1.0 - e);
      sw0 += w;
      sy0 += w * y[i];
    }
  }
  if (sw1 <= 0 || sw0 <= 0) return est;
  const double mu1 = sy1 / sw1;
  const double mu0 = sy0 / sw0;

  // Influence-function variance of the Hajek ATE.
  const double n = static_cast<double>(rows.size());
  double var_sum = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double e = prop[i];
    const double psi =
        treated[i] ? (y[i] - mu1) / e : -(y[i] - mu0) / (1.0 - e);
    var_sum += psi * psi;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
  }
  est.valid = true;
  est.cate = mu1 - mu0;
  est.std_error = std::sqrt(var_sum) / n;
  est.p_value = est.std_error > 0
                    ? TwoSidedPValueZ(est.cate / est.std_error)
                    : 1.0;
  est.n_used = rows.size();
  return est;
}

EstimatorCacheStats EstimatorContext::Stats() const {
  EstimatorCacheStats s;
  s.memo_hits = n_hits_.load(std::memory_order_relaxed);
  s.memo_misses = n_misses_.load(std::memory_order_relaxed);
  s.memo_evicted = n_evicted_.load(std::memory_order_relaxed);
  s.memo_migrated = n_migrated_.load(std::memory_order_relaxed);
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
      for (const auto& [bits, id] : bucket) subpops.emplace_back(id, bits);
    }
    entries.reserve(memo_.size());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      entries.emplace_back(*it, memo_.find(*it)->second.est);
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
    w.PutString(key.outcome);
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
    subpop_ids_[h].emplace_back(std::move(bits),
                                static_cast<uint32_t>(id));
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
    key.outcome = r.GetString();
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

    // Entries arrive oldest first; push_front keeps the newest at the
    // front, reproducing the exported LRU order.
    lru_.push_front(key);
    MemoEntry entry{est, lru_.begin(), EntryBytes(key)};
    memo_bytes_ += entry.bytes;
    if (!memo_.emplace(std::move(key), std::move(entry)).second) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "memo state: duplicate entry");
    }
  }
  if (!r.AtEnd()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "memo state: trailing bytes");
  }
  n_migrated_.store(memo_.size(), std::memory_order_relaxed);
  return memo_.size();
}

}  // namespace causumx
