#include "engine/eval_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "storage/bytes.h"
#include "storage/storage_error.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace causumx {

namespace {

// Structural key of an atomic predicate. '\0' separators keep
// ("AB", "=", "c") and ("A", "=", "Bc") distinct. Numeric constants are
// encoded exactly (doubles by bit pattern) — Value::ToString rounds to 6
// significant digits, which would conflate distinct thresholds and make
// the cached path serve the wrong bitset.
std::string PredicateKey(const SimplePredicate& p) {
  std::string key = p.attribute;
  key.push_back('\0');
  key.push_back(static_cast<char>('0' + static_cast<int>(p.op)));
  key.push_back('\0');
  const Value& v = p.value;
  if (v.is_double()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "d%016llx",
                  (unsigned long long)std::bit_cast<uint64_t>(v.AsDouble()));
    key += buf;
  } else if (v.is_int()) {
    key.push_back('i');
    key += std::to_string(v.AsInt());
  } else if (v.is_string()) {
    key.push_back('s');
    key += v.AsString();
  } else {
    key.push_back('n');
  }
  return key;
}

ShardPlan PlanFor(const Table& table, const EvalEngineOptions& options) {
  const size_t auto_shards =
      options.pool != nullptr ? options.pool->NumThreads() : 1;
  return ShardPlan::ForShardCount(table.NumRows(), options.num_shards,
                                  auto_shards);
}

}  // namespace

EvalEngine::EvalEngine(std::shared_ptr<const Table> table,
                       EvalEngineOptions options)
    : table_(std::move(table)),
      cache_enabled_(options.cache_enabled),
      plan_(PlanFor(*table_, options)),
      pool_(std::move(options.pool)) {
  for (size_t c = 0; c < table_->NumColumns(); ++c) {
    column_slots_.emplace_back();
  }
}

EvalEngine::EvalEngine(std::shared_ptr<const Table> table,
                       const EvalEngine& base, size_t dropped_prefix_rows)
    : table_(std::move(table)),
      cache_enabled_(base.cache_enabled_),
      plan_(table_->NumRows(), base.plan_.shard_rows()),
      pool_(base.pool_) {
  const size_t dropped = dropped_prefix_rows;
  const size_t base_rows = base.table_->NumRows();
  const size_t rows = table_->NumRows();
  if (dropped > base_rows || rows < base_rows - dropped ||
      table_->NumColumns() != base.table_->NumColumns()) {
    throw std::invalid_argument(
        "EvalEngine derivation: table is not the base table minus a "
        "dropped prefix plus appended rows");
  }

  // Inherit the intern table (ids must survive so EstimatorContext memo
  // keys stay valid) and snapshot every slot. The base may be serving
  // queries concurrently, so the phase under its shared intern lock only
  // copies pointers; the bit work of the row map happens after release,
  // so a query that needs to intern a new predicate into the base never
  // waits on the derivation.
  std::vector<SlotState> states;
  {
    util::ReaderMutexLock base_lock(base.intern_mu_);
    ids_ = base.ids_;
    clock_.store(base.clock_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    states = base.SnapshotSlotsLocked();
  }
  std::atomic<uint64_t>& carried_counter =
      dropped == 0 ? n_extended_ : n_retracted_;
  for (SlotState& state : states) {
    if (MapRows(base.plan_, dropped, &state)) {
      carried_counter.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    // Uncontended: this engine is still private to the constructor.
    util::WriterMutexLock lock(intern_mu_);
    for (SlotState& state : states) AdoptSlotLocked(std::move(state));
  }
  n_interned_.store(states.size(), std::memory_order_relaxed);

  // Numeric column views follow the same row map: shift down by the
  // dropped prefix, then extend over the appended rows. A categorical
  // view holds dictionary codes, and Table::Tail re-codes dictionaries
  // in survivor first-appearance order, so after a drop those views
  // rebuild on demand.
  const size_t kept = base_rows - dropped;
  std::atomic<uint64_t>& view_counter =
      dropped == 0 ? n_views_extended_ : n_views_retracted_;
  for (size_t c = 0; c < table_->NumColumns(); ++c) {
    column_slots_.emplace_back();
    ColumnSlot& dst = column_slots_.back();
    const ColumnSlot& src = base.column_slots_[c];
    const Column& col = table_->column(c);
    // Distinct values survive an append-only derivation: the appended
    // rows' merge into the base's. A dropped prefix may remove values,
    // so they recompute on demand.
    if (dropped == 0 && src.distinct_ready.load(std::memory_order_acquire)) {
      dst.distinct = std::make_shared<const std::vector<Value>>(
          col.DistinctValuesAfterAppend(*src.distinct, base_rows));
      dst.distinct_ready.store(true, std::memory_order_release);
    }
    if (!src.ready.load(std::memory_order_acquire)) continue;
    if (dropped > 0 && col.type() == ColumnType::kCategorical) continue;
    dst.view.values.assign(
        src.view.values.begin() + static_cast<ptrdiff_t>(dropped),
        src.view.values.end());
    dst.view.valid = src.view.valid;
    dst.view.valid.DropPrefix(dropped);
    dst.view.values.resize(rows);
    dst.view.valid.Resize(rows);
    for (size_t r = kept; r < rows; ++r) {
      if (col.IsNull(r)) {
        dst.view.values[r] = std::nan("");
      } else {
        dst.view.values[r] = col.GetNumeric(r);
        dst.view.valid.Set(r);
      }
    }
    view_bytes_.fetch_add(rows * sizeof(double) + BitsetBytes(dst.view.valid),
                          std::memory_order_relaxed);
    view_counter.fetch_add(1, std::memory_order_relaxed);
    dst.ready.store(true, std::memory_order_release);
  }
}

std::vector<EvalEngine::SlotState> EvalEngine::SnapshotSlotsLocked() const {
  std::vector<SlotState> states;
  states.reserve(slots_.size());
  for (const PredicateSlot& src : slots_) {
    SlotState state;
    state.pred = src.pred;
    {
      util::MutexLock lk(src.mu);
      state.segs = src.segs;
      state.seg_used = src.seg_used;
    }
    states.push_back(std::move(state));
  }
  return states;
}

bool EvalEngine::MapRows(const ShardPlan& src_plan, size_t dropped,
                         SlotState* state) const {
  // Target rows [0, kept) are source rows [dropped, src rows); target
  // rows from `kept` on were appended.
  const size_t kept = src_plan.num_rows() - dropped;
  const size_t num_shards = plan_.NumShards();
  std::vector<std::shared_ptr<const Bitset>> segs(num_shards);
  std::vector<uint64_t> used(num_shards, 0);
  bool carried = false;
  for (size_t t = 0; t < num_shards; ++t) {
    const size_t begin = plan_.ShardBegin(t);
    const size_t end = plan_.ShardEnd(t);
    Bitset bits;
    if (begin < kept) {
      // Surviving rows: every source segment covering them must be
      // resident, else the shard rematerializes on demand.
      const size_t src_begin = begin + dropped;
      const size_t src_end = std::min(end, kept) + dropped;
      const size_t lo = src_plan.ShardOfRow(src_begin);
      const size_t hi = src_plan.ShardOfRow(src_end - 1);
      bool resident = true;
      uint64_t stamp = 0;
      for (size_t s = lo; s <= hi && resident; ++s) {
        resident = state->segs[s] != nullptr;
        stamp = std::max(stamp, state->seg_used[s]);
      }
      if (!resident) continue;
      carried = true;
      used[t] = stamp;
      if (lo == hi && src_plan.ShardBegin(lo) == src_begin &&
          src_plan.ShardEnd(lo) == end + dropped) {
        segs[t] = state->segs[lo];  // exactly this shard's rows: share
        continue;
      }
      // Assemble the covering segments (word-aligned), shift them to
      // this shard's first row, and cut or zero-extend to its size.
      const size_t span_begin = src_plan.ShardBegin(lo);
      bits = Bitset(src_plan.ShardEnd(hi) - span_begin);
      for (size_t s = lo; s <= hi; ++s) {
        bits.AssignRange(src_plan.ShardBegin(s) - span_begin, *state->segs[s]);
      }
      bits.DropPrefix(src_begin - span_begin);
      bits.Resize(end - begin);
    } else {
      // Appended rows only. Shards run in row order, so `carried` is
      // final here: a predicate that carried nothing was never cached.
      if (!carried) continue;
      bits = Bitset(end - begin);
    }
    // Evaluate only the appended rows. Row-at-a-time Matches agrees
    // bit-for-bit with Pattern::Evaluate (see the engine property
    // tests), including the absent-dictionary-constant case: surviving
    // rows keep their values, so a constant that only entered the
    // dictionary with the appended rows still matches no older row.
    for (size_t r = std::max(begin, kept); r < end; ++r) {
      if (state->pred.Matches(*table_, r)) bits.Set(r - begin);
    }
    segs[t] = std::make_shared<const Bitset>(std::move(bits));
  }
  state->segs = std::move(segs);
  state->seg_used = std::move(used);
  return carried;
}

void EvalEngine::AdoptSlotLocked(SlotState state) {
  slots_.emplace_back();
  PredicateSlot& dst = slots_.back();
  dst.pred = std::move(state.pred);
  util::MutexLock lk(dst.mu);
  dst.segs = std::move(state.segs);
  dst.seg_used = std::move(state.seg_used);
  for (const auto& seg : dst.segs) {
    if (seg == nullptr) continue;
    bitset_bytes_.fetch_add(BitsetBytes(*seg), std::memory_order_relaxed);
  }
}

size_t EvalEngine::BitsetBytes(const Bitset& bits) {
  return sizeof(Bitset) + ((bits.size() + 63) / 64) * sizeof(uint64_t);
}

void EvalEngine::RunSharded(size_t n,
                            const std::function<void(size_t)>& fn) const {
  ThreadPool::RunOn(pool_.get(), n, fn);
}

PredicateId EvalEngine::Intern(const SimplePredicate& pred) {
  const std::string key = PredicateKey(pred);
  {
    util::ReaderMutexLock lock(intern_mu_);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  util::WriterMutexLock lock(intern_mu_);
  auto [it, inserted] =
      ids_.emplace(key, static_cast<PredicateId>(slots_.size()));
  if (inserted) {
    slots_.emplace_back();
    slots_.back().pred = pred;
    slots_.back().segs.resize(plan_.NumShards());
    slots_.back().seg_used.assign(plan_.NumShards(), 0);
    n_interned_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

std::vector<std::shared_ptr<const Bitset>> EvalEngine::SegmentsOf(
    PredicateId id) {
  PredicateSlot* slot;
  {
    util::ReaderMutexLock lock(intern_mu_);
    slot = &slots_[id];
  }
  const uint64_t stamp = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  util::MutexLock lk(slot->mu);
  std::vector<size_t> missing;
  for (size_t s = 0; s < slot->segs.size(); ++s) {
    slot->seg_used[s] = stamp;
    if (slot->segs[s] == nullptr) missing.push_back(s);
  }
  if (!missing.empty()) {
    // Build the missing segments pool-parallel into a scratch array;
    // workers never touch the slot (the lock is ours), and the
    // ParallelFor join orders their writes before the publication below.
    // Each worker runs the kernel-backed single-predicate evaluator.
    std::vector<std::shared_ptr<const Bitset>> built(missing.size());
    const SimplePredicate& pred = slot->pred;
    // causumx-analyzer: allow(lock-blocking) intentional: the sharded
    // build fans out while holding this slot's mutex so concurrent
    // readers of the same predicate block instead of duplicating the
    // build; workers take no locks, so no cycle is possible.
    RunSharded(missing.size(), [&](size_t i) {
      const size_t s = missing[i];
      built[i] = std::make_shared<const Bitset>(EvaluatePredicateRange(
          *table_, pred, plan_.ShardBegin(s), plan_.ShardEnd(s)));
    });
    for (size_t i = 0; i < missing.size(); ++i) {
      slot->segs[missing[i]] = built[i];
      bitset_bytes_.fetch_add(BitsetBytes(*built[i]),
                              std::memory_order_relaxed);
    }
    n_materialized_.fetch_add(missing.size(), std::memory_order_relaxed);
  }
  n_bitset_hits_.fetch_add(slot->segs.size() - missing.size(),
                           std::memory_order_relaxed);
  return slot->segs;
}

std::shared_ptr<const Bitset> EvalEngine::PredicateBits(PredicateId id) {
  std::vector<std::shared_ptr<const Bitset>> segs = SegmentsOf(id);
  if (segs.size() == 1) return segs[0];  // the cached bits, zero copy
  Bitset whole(table_->NumRows());
  for (size_t s = 0; s < segs.size(); ++s) {
    whole.AssignRange(plan_.ShardBegin(s), *segs[s]);
  }
  return std::make_shared<const Bitset>(std::move(whole));
}

Bitset EvalEngine::Evaluate(const Pattern& pattern) {
  if (!cache_enabled_) {
    n_bypass_evals_.fetch_add(1, std::memory_order_relaxed);
    return pattern.Evaluate(*table_);
  }
  Bitset out(table_->NumRows());
  out.SetAll();
  AndPatternInto(pattern, &out);
  return out;
}

Bitset EvalEngine::EvaluateOn(const Pattern& pattern, const Bitset& mask) {
  if (!cache_enabled_) {
    Bitset out = Evaluate(pattern);
    out &= mask;
    return out;
  }
  // AND is exact and commutative: starting from the mask gives the same
  // bits as Evaluate(pattern) & mask, with one pass fewer.
  Bitset out = mask;
  AndPatternInto(pattern, &out);
  return out;
}

void EvalEngine::AndPatternInto(const Pattern& pattern, Bitset* out) {
  n_pattern_evals_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::vector<std::shared_ptr<const Bitset>>> atoms;
  atoms.reserve(pattern.predicates().size());
  for (const auto& p : pattern.predicates()) {
    atoms.push_back(SegmentsOf(Intern(p)));
  }
  // Shard-wise AND-accumulate into the (word-aligned, disjoint) output
  // ranges. Deliberately serial: the expensive O(rows) work — segment
  // materialization — already ran pool-parallel inside SegmentsOf, and
  // the AND itself is a word-wise pass cheaper than a task dispatch.
  for (size_t s = 0; s < plan_.NumShards(); ++s) {
    const size_t begin = plan_.ShardBegin(s);
    for (const auto& segs : atoms) out->AndRange(begin, *segs[s]);
  }
}

const NumericColumnView& EvalEngine::Numeric(size_t col) {
  ColumnSlot& slot = column_slots_[col];
  if (slot.ready.load(std::memory_order_acquire)) return slot.view;
  util::MutexLock lk(slot.mu);
  if (slot.ready.load(std::memory_order_relaxed)) return slot.view;
  const Column& c = table_->column(col);
  const size_t n = table_->NumRows();
  slot.view.values.resize(n);
  slot.view.valid = Bitset(n);
  // Shards write disjoint index ranges of `values` and disjoint
  // (word-aligned) ranges of `valid`; the ParallelFor join publishes
  // their writes before `ready` is released below.
  // causumx-analyzer: allow(lock-blocking) intentional: the sharded view
  // build runs under this column's mutex so concurrent callers block on
  // one build instead of duplicating it; workers take no locks.
  RunSharded(plan_.NumShards(), [&](size_t s) {
    const size_t end = plan_.ShardEnd(s);
    for (size_t r = plan_.ShardBegin(s); r < end; ++r) {
      if (c.IsNull(r)) {
        slot.view.values[r] = std::nan("");
      } else {
        slot.view.values[r] = c.GetNumeric(r);
        slot.view.valid.Set(r);
      }
    }
  });
  n_views_built_.fetch_add(1, std::memory_order_relaxed);
  view_bytes_.fetch_add(n * sizeof(double) + BitsetBytes(slot.view.valid),
                        std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
  return slot.view;
}

std::shared_ptr<const std::vector<Value>> EvalEngine::DistinctValues(
    size_t col) {
  if (!cache_enabled_) {
    return std::make_shared<const std::vector<Value>>(
        table_->column(col).DistinctValues());
  }
  ColumnSlot& slot = column_slots_[col];
  if (slot.distinct_ready.load(std::memory_order_acquire)) {
    return slot.distinct;
  }
  util::MutexLock lk(slot.distinct_mu);
  if (!slot.distinct_ready.load(std::memory_order_relaxed)) {
    slot.distinct = std::make_shared<const std::vector<Value>>(
        table_->column(col).DistinctValues());
    slot.distinct_ready.store(true, std::memory_order_release);
  }
  return slot.distinct;
}

size_t EvalEngine::NumDistinct(size_t col) {
  if (cache_enabled_) {
    const ColumnSlot& slot = column_slots_[col];
    if (slot.distinct_ready.load(std::memory_order_acquire)) {
      return slot.distinct->size();
    }
  }
  return table_->column(col).NumDistinct();
}

size_t EvalEngine::NumInterned() const {
  util::ReaderMutexLock lock(intern_mu_);
  return slots_.size();
}

size_t EvalEngine::CacheBytes() const {
  return bitset_bytes_.load(std::memory_order_relaxed);
}

size_t EvalEngine::EvictLru(size_t bytes_to_free) {
  if (bytes_to_free == 0) return 0;
  // Snapshot (stamp, id, shard) triples oldest-first. A reader racing
  // with the scan may re-stamp or rebuild a segment; that only makes
  // eviction slightly less than perfectly LRU, never incorrect — readers
  // hold the bits by shared_ptr and evicted segments rebuild on demand.
  std::vector<std::tuple<uint64_t, PredicateId, uint32_t>> order;
  {
    util::ReaderMutexLock lock(intern_mu_);
    for (PredicateId id = 0; id < slots_.size(); ++id) {
      const PredicateSlot& slot = slots_[id];
      util::MutexLock lk(slot.mu);
      for (size_t s = 0; s < slot.segs.size(); ++s) {
        if (slot.segs[s] != nullptr) {
          order.emplace_back(slot.seg_used[s], id,
                             static_cast<uint32_t>(s));
        }
      }
    }
  }
  std::sort(order.begin(), order.end());
  size_t freed = 0;
  for (const auto& [stamp, id, shard] : order) {
    if (freed >= bytes_to_free) break;
    PredicateSlot* slot;
    {
      util::ReaderMutexLock lock(intern_mu_);
      slot = &slots_[id];
    }
    util::MutexLock lk(slot->mu);
    if (slot->segs[shard] != nullptr) {
      freed += BitsetBytes(*slot->segs[shard]);
      slot->segs[shard].reset();
      n_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  bitset_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

EvalEngineStats EvalEngine::Stats() const {
  EvalEngineStats s;
  s.predicates_interned = n_interned_.load(std::memory_order_relaxed);
  s.bitsets_materialized = n_materialized_.load(std::memory_order_relaxed);
  s.bitset_hits = n_bitset_hits_.load(std::memory_order_relaxed);
  s.bitsets_evicted = n_evicted_.load(std::memory_order_relaxed);
  s.bitsets_extended = n_extended_.load(std::memory_order_relaxed);
  s.bitsets_retracted = n_retracted_.load(std::memory_order_relaxed);
  s.pattern_evals = n_pattern_evals_.load(std::memory_order_relaxed);
  s.bypass_evals = n_bypass_evals_.load(std::memory_order_relaxed);
  s.column_views_built = n_views_built_.load(std::memory_order_relaxed);
  s.column_views_extended =
      n_views_extended_.load(std::memory_order_relaxed);
  s.column_views_retracted =
      n_views_retracted_.load(std::memory_order_relaxed);
  s.bitset_bytes = bitset_bytes_.load(std::memory_order_relaxed);
  s.view_bytes = view_bytes_.load(std::memory_order_relaxed);
  s.num_shards = plan_.NumShards();
  return s;
}

namespace {

// Typed Value codec for predicate constants (tags: 0 null, 1 int,
// 2 double by bit pattern, 3 string).
void PutValue(ByteWriter* w, const Value& v) {
  if (v.is_int()) {
    w->PutU8(1);
    w->PutVarintSigned(v.AsInt());
  } else if (v.is_double()) {
    w->PutU8(2);
    w->PutDouble(v.AsDouble());
  } else if (v.is_string()) {
    w->PutU8(3);
    w->PutString(v.AsString());
  } else {
    w->PutU8(0);
  }
}

Value GetValue(ByteReader* r) {
  switch (r->GetU8()) {
    case 0:
      return Value();
    case 1:
      return Value(r->GetVarintSigned());
    case 2:
      return Value(r->GetDouble());
    case 3:
      return Value(r->GetString());
    default:
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: unknown value tag");
  }
}

// Segment tags inside an exported segment's bytes. Tag 1 (a compressed
// segment) was written by earlier releases only.
constexpr uint8_t kPlainSegmentTag = 0;
constexpr uint8_t kCompressedSegmentTag = 1;

// The byte after the shard size held the segment compression policy of
// earlier releases; it stays the literal of their default, so the
// payload is unchanged.
constexpr uint8_t kSegmentPolicyByte = 0;

}  // namespace

std::string EvalEngine::ExportCacheState() const {
  // Snapshot phase mirrors the derivation constructor: copy the
  // predicates and segment pointers under the locks, serialize after
  // releasing them so concurrent queries are never blocked on encoding.
  std::vector<SlotState> states;
  {
    util::ReaderMutexLock lock(intern_mu_);
    states = SnapshotSlotsLocked();
  }

  ByteWriter w;
  w.PutU64(table_->NumRows());
  w.PutVarint(plan_.NumShards());
  w.PutVarint(plan_.shard_rows());
  w.PutU8(kSegmentPolicyByte);
  w.PutU8(cache_enabled_ ? 1 : 0);
  w.PutVarint(states.size());
  for (const SlotState& state : states) {
    w.PutString(state.pred.attribute);
    w.PutU8(static_cast<uint8_t>(state.pred.op));
    PutValue(&w, state.pred.value);
    w.PutVarint(state.segs.size());
    for (const auto& seg : state.segs) {
      if (seg == nullptr) {
        w.PutU8(0);
      } else {
        w.PutU8(1);
        ByteWriter seg_w;
        seg_w.PutU8(kPlainSegmentTag);
        seg_w.PutVarint(seg->size());
        for (size_t i = 0; i < seg->num_words(); ++i) {
          seg_w.PutU64(seg->data()[i]);
        }
        w.PutString(seg_w.TakeBytes());
      }
    }
  }
  return w.TakeBytes();
}

size_t EvalEngine::ImportCacheState(const std::string& bytes) {
  ByteReader r(bytes);
  const uint64_t rows = r.GetU64();
  if (rows != table_->NumRows()) {
    throw StorageError(StorageErrorKind::kStale,
                       "engine cache: row count mismatch");
  }
  const uint64_t src_shards = r.GetVarint();
  const uint64_t src_shard_rows = r.GetVarint();
  r.GetU8();  // kSegmentPolicyByte; each segment carries its own tag
  if ((r.GetU8() != 0) != cache_enabled_) {
    throw StorageError(StorageErrorKind::kStale,
                       "engine cache: options mismatch");
  }
  // The source plan is untrusted input: a writer only ever emits
  // block-aligned shard sizes. A size at or beyond the row count
  // describes the single-shard partition.
  if (src_shard_rows == 0 || src_shard_rows % kSummationBlockRows != 0) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: invalid shard size");
  }
  const ShardPlan src_plan = src_shard_rows >= rows
                                 ? ShardPlan(rows)
                                 : ShardPlan(rows, src_shard_rows);
  const size_t num_src_shards = src_plan.NumShards();
  if (src_shards != num_src_shards) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: shard count does not match its plan");
  }
  const uint64_t n_preds = r.GetVarint();
  if (n_preds > bytes.size()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: implausible predicate count");
  }

  // Decode every predicate on the source plan, then re-slice it onto
  // this engine's plan through the derivation row map (nothing dropped,
  // nothing appended: a matching plan shares every segment outright).
  std::vector<SlotState> states;
  std::unordered_map<std::string, PredicateId> ids;
  while (states.size() < n_preds) {
    const auto id = static_cast<PredicateId>(states.size());
    SlotState& state = states.emplace_back();
    state.pred.attribute = r.GetString();
    const uint8_t op = r.GetU8();
    if (op > static_cast<uint8_t>(CompareOp::kGe)) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: unknown compare op");
    }
    state.pred.op = static_cast<CompareOp>(op);
    state.pred.value = GetValue(&r);
    if (!ids.emplace(PredicateKey(state.pred), id).second) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: duplicate predicate");
    }
    if (r.GetVarint() != num_src_shards) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: segment count mismatch");
    }
    state.segs.resize(num_src_shards);
    state.seg_used.assign(num_src_shards, 0);
    for (size_t s = 0; s < num_src_shards; ++s) {
      if (r.GetU8() == 0) continue;
      const std::string seg_bytes = r.GetString();
      ByteReader seg_r(seg_bytes);
      const uint8_t tag = seg_r.GetU8();
      if (tag == kCompressedSegmentTag) continue;  // non-resident
      if (tag != kPlainSegmentTag) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: unknown segment tag");
      }
      const size_t shard_rows = src_plan.ShardEnd(s) - src_plan.ShardBegin(s);
      if (seg_r.GetVarint() != shard_rows) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: segment size does not match shard");
      }
      if (seg_r.remaining() != (shard_rows + 63) / 64 * sizeof(uint64_t)) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: segment length does not match "
                           "its size");
      }
      Bitset bits(shard_rows);
      for (size_t i = 0; i < bits.num_words(); ++i) {
        bits.mutable_data()[i] = seg_r.GetU64();
      }
      if (shard_rows % 64 != 0 &&
          (bits.data()[bits.num_words() - 1] >> (shard_rows % 64)) != 0) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: segment padding bits set");
      }
      state.segs[s] = std::make_shared<const Bitset>(std::move(bits));
    }
  }
  if (!r.AtEnd()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: trailing bytes");
  }

  size_t restored = 0;
  uint64_t carried = 0;
  for (SlotState& state : states) {
    if (MapRows(src_plan, 0, &state)) ++carried;
    for (const auto& seg : state.segs) restored += seg != nullptr ? 1 : 0;
  }
  {
    util::WriterMutexLock lock(intern_mu_);
    if (!slots_.empty()) {
      throw std::logic_error(
          "EvalEngine::ImportCacheState requires a fresh engine");
    }
    ids_ = std::move(ids);
    for (SlotState& state : states) AdoptSlotLocked(std::move(state));
  }
  n_interned_.store(states.size(), std::memory_order_relaxed);
  // Restored predicates count as inherited, like an append derivation —
  // they were carried into this engine, not materialized by it.
  n_extended_.fetch_add(carried, std::memory_order_relaxed);
  return restored;
}

}  // namespace causumx
