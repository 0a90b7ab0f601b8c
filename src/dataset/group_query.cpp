#include "dataset/group_query.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "util/shard_plan.h"
#include "util/stats.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace causumx {

std::string GroupByAvgQuery::ToSql(const std::string& relation) const {
  std::ostringstream oss;
  oss << "SELECT " << Join(group_by, ", ") << ", AVG(" << avg_attribute
      << ") FROM " << relation;
  if (!where.IsEmpty()) oss << " WHERE " << where.ToString();
  oss << " GROUP BY " << Join(group_by, ", ");
  return oss.str();
}

std::string GroupResult::KeyString() const {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += "|";
    // Group identity is exact (dictionary codes / numeric bit patterns),
    // so the label must be too: doubles render with round-trip precision
    // — Value::ToString's 6-significant-digit form would give two
    // distinct groups (e.g. 1.0000001 vs 1.0000002) the same label.
    if (key[i].is_double()) {
      out += FormatDouble(key[i].AsDouble(), 17);
    } else {
      out += key[i].ToString();
    }
  }
  return out;
}

namespace {

// Exact 64-bit encoding of one group-by cell (caller has excluded nulls):
// categorical cells key by dictionary code, integers by value, doubles by
// bit pattern (with -0.0 collapsed into +0.0 so the two zeros group
// together, as numeric equality says they should).
uint64_t CellCode(const Column& col, size_t r) {
  switch (col.type()) {
    case ColumnType::kCategorical:
      return static_cast<uint64_t>(static_cast<uint32_t>(col.GetCode(r)));
    case ColumnType::kInt64:
      return static_cast<uint64_t>(col.GetInt(r));
    case ColumnType::kDouble: {
      double d = col.GetDouble(r);
      if (d == 0.0) d = 0.0;
      return std::bit_cast<uint64_t>(d);
    }
  }
  return 0;
}

}  // namespace

AggregateView AggregateView::Evaluate(const Table& table,
                                      const GroupByAvgQuery& query) {
  return Evaluate(table, query, ShardPlan(table.NumRows()), nullptr);
}

namespace {

// Open-addressing index from a composite group key (kc words, stored
// contiguously by id) to its dense id, in insertion order. Linear
// probing over a power-of-two table of (hash, id) slots kept at most
// half full; a hash match is confirmed by comparing the full key, so a
// 64-bit collision can never merge two distinct groups.
class GroupIndex {
 public:
  explicit GroupIndex(size_t kc) : kc_(kc) { Rehash(64); }

  // Id of the group keyed by `key` (hash `h`); an unseen key becomes id
  // size() and sets `*inserted`.
  uint32_t FindOrInsert(const uint64_t* key, uint64_t h, bool* inserted) {
    size_t slot = Slot(h);
    for (;; slot = (slot + 1) & mask_) {
      const uint32_t id = ids_[slot];
      if (id == kEmpty) break;
      if (hashes_[slot] == h &&
          std::equal(key, key + kc_, keys_.data() + id * kc_)) {
        *inserted = false;
        return id;
      }
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    keys_.insert(keys_.end(), key, key + kc_);
    ids_[slot] = id;
    hashes_[slot] = h;
    if (2 * size_ > ids_.size()) Rehash(4 * ids_.size());
    *inserted = true;
    return id;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // Fibonacci hashing: the top bits of the product depend on every bit
  // of `h` (FNV's low bits alone cluster on bit-pattern keys).
  size_t Slot(uint64_t h) const {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Rehash(size_t capacity) {
    std::vector<uint32_t> old_ids = std::move(ids_);
    std::vector<uint64_t> old_hashes = std::move(hashes_);
    ids_.assign(capacity, kEmpty);
    hashes_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] == kEmpty) continue;
      size_t slot = Slot(old_hashes[i]);
      while (ids_[slot] != kEmpty) slot = (slot + 1) & mask_;
      ids_[slot] = old_ids[i];
      hashes_[slot] = old_hashes[i];
    }
  }

  size_t kc_;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;  // kc words per id
  std::vector<uint32_t> ids_;  // per slot
  std::vector<uint64_t> hashes_;  // per slot
  size_t mask_ = 0;
  int shift_ = 0;
};

// One group's Kahan partial over one 64-row summation block.
struct BlockPartial {
  uint32_t group;  // shard-local id
  uint32_t block;
  KahanSum sum;
};

// Per-shard scan output: a local group table in first-appearance order
// and the (group, 64-row-block) Kahan partial sums in one pooled list in
// row order — so each group's partials appear in ascending block order.
// Shards are merged in shard order, which concatenates each group's
// block partials in ascending block order — so the merged sum is a
// function of the data and block size alone, independent of the shard
// decomposition.
struct ShardScan {
  explicit ShardScan(size_t kc) : index(kc) {}

  GroupIndex index;
  std::vector<uint64_t> hashes;      // FNV of the composite, per group
  std::vector<size_t> first_rows;    // first member row, per group
  std::vector<size_t> counts;        // member rows, per group
  std::vector<uint32_t> open;        // the group's newest partial
  std::vector<BlockPartial> partials;
  std::vector<size_t> row_offsets;   // pass 2: next slot in the group's rows
  std::vector<int32_t> to_global;    // pass 2: local id -> global id
};

}  // namespace

AggregateView AggregateView::Evaluate(const Table& table,
                                      const GroupByAvgQuery& query,
                                      const ShardPlan& plan,
                                      ThreadPool* pool) {
  auto data = std::make_shared<Data>();
  Data& view = *data;
  view.query = query;
  view.row_group.assign(table.NumRows(), -1);

  std::vector<const Column*> key_cols;
  key_cols.reserve(query.group_by.size());
  for (const auto& name : query.group_by) {
    key_cols.push_back(&table.column(name));
  }
  const Column& avg_col = table.column(query.avg_attribute);
  const size_t kc = key_cols.size();
  const size_t num_shards = plan.NumShards();

  // WHERE mask, evaluated shard-parallel into disjoint word-aligned
  // ranges (bit-exact, so identical for every plan).
  Bitset where_mask;
  if (!query.where.IsEmpty()) {
    where_mask = Bitset(table.NumRows());
    ThreadPool::RunOn(pool, num_shards, [&](size_t s) {
      const size_t begin = plan.ShardBegin(s);
      where_mask.AssignRange(
          begin, query.where.EvaluateRange(table, begin, plan.ShardEnd(s)));
    });
  }

  // Pass 1 (parallel): per-shard local group discovery. Rows key by
  // their exact composite cell codes through the shard's GroupIndex.
  // Local ids follow first appearance within the shard; the shard
  // writes its local ids into row_group_ (disjoint ranges) and pass 2
  // maps them to global ids.
  std::vector<ShardScan> scans;
  scans.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) scans.emplace_back(kc);
  const uint64_t* mask_words =
      query.where.IsEmpty() ? nullptr : where_mask.data();
  ThreadPool::RunOn(pool, num_shards, [&](size_t s) {
    ShardScan& scan = scans[s];
    std::vector<uint64_t> scratch(kc);
    const size_t end = plan.ShardEnd(s);
    for (size_t r = plan.ShardBegin(s); r < end; ++r) {
      if (mask_words != nullptr) {
        // Shard boundaries are word-aligned, so (r & 63) == 0 lands on
        // whole mask words: a zero word skips its 64 rows outright —
        // selective WHERE clauses touch only the matching words.
        if ((r & 63) == 0 && r + 64 <= end && mask_words[r >> 6] == 0) {
          r += 63;
          continue;
        }
        if (!where_mask.Test(r)) continue;
      }
      if (avg_col.IsNull(r)) continue;
      bool null_key = false;
      uint64_t h = 0xcbf29ce484222325ULL;
      for (size_t k = 0; k < kc; ++k) {
        if (key_cols[k]->IsNull(r)) {
          null_key = true;
          break;
        }
        scratch[k] = CellCode(*key_cols[k], r);
        h = (h ^ scratch[k]) * 0x100000001b3ULL;
      }
      if (null_key) continue;

      bool inserted = false;
      const uint32_t gid = scan.index.FindOrInsert(scratch.data(), h,
                                                   &inserted);
      if (inserted) {
        scan.hashes.push_back(h);
        scan.first_rows.push_back(r);
        scan.counts.push_back(0);
        scan.open.push_back(UINT32_MAX);
      }
      scan.counts[gid] += 1;
      const uint32_t block = static_cast<uint32_t>(r / kSummationBlockRows);
      uint32_t& open = scan.open[gid];
      if (open == UINT32_MAX || scan.partials[open].block != block) {
        open = static_cast<uint32_t>(scan.partials.size());
        scan.partials.push_back({gid, block, KahanSum()});
      }
      scan.partials[open].sum.Add(avg_col.GetNumeric(r));
      view.row_group[r] = static_cast<int32_t>(gid);
    }
  });

  // Pass 2 (serial, shard order): fold local groups into the global
  // table. Shard s covers strictly lower rows than shard s+1, so global
  // first-appearance order — and hence group ids, key values, and the
  // ascending per-group row lists — matches a serial full scan exactly.
  // Each local group is also given its slice of the global group's
  // member rows: shards fill consecutive slices in shard order. With one
  // shard the local ids are the global ones.
  GroupIndex index(kc);
  std::vector<KahanSum> sums;
  size_t local_groups = 0;  // bounds the global group count
  for (const ShardScan& scan : scans) local_groups += scan.counts.size();
  view.groups.reserve(local_groups);
  view.keys.reserve(local_groups * kc);
  sums.reserve(local_groups);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardScan& scan = scans[s];
    const size_t num_local = scan.counts.size();
    scan.to_global.resize(num_local);
    scan.row_offsets.resize(num_local);
    std::vector<uint64_t> key(kc);
    for (size_t lg = 0; lg < num_local; ++lg) {
      const size_t first = scan.first_rows[lg];
      bool inserted = true;
      uint32_t gid = static_cast<uint32_t>(lg);
      if (num_shards > 1) {
        for (size_t k = 0; k < kc; ++k) {
          key[k] = CellCode(*key_cols[k], first);
        }
        gid = index.FindOrInsert(key.data(), scan.hashes[lg], &inserted);
      }
      if (inserted) {
        for (const Column* c : key_cols) view.keys.push_back(c->GetValue(first));
        view.groups.emplace_back();
        sums.emplace_back();
      }
      scan.to_global[lg] = static_cast<int32_t>(gid);
      GroupResult& g = view.groups[gid];
      scan.row_offsets[lg] = g.count;
      g.count += scan.counts[lg];
    }
    for (const BlockPartial& part : scan.partials) {
      sums[scan.to_global[part.group]].Merge(part.sum);
    }
  }

  // Member rows, one flat array with each group's rows contiguous, then
  // the global-id rewrite: each shard writes its rows into its own slice
  // of every group's range (parallel, disjoint ranges).
  std::vector<size_t> first_row(view.groups.size());
  size_t total_rows = 0;
  for (size_t g = 0; g < view.groups.size(); ++g) {
    first_row[g] = total_rows;
    total_rows += view.groups[g].count;
  }
  view.member_rows.resize(total_rows);
  ThreadPool::RunOn(pool, num_shards, [&](size_t s) {
    ShardScan& scan = scans[s];
    const size_t end = plan.ShardEnd(s);
    for (size_t r = plan.ShardBegin(s); r < end; ++r) {
      const int32_t lg = view.row_group[r];
      if (lg < 0) continue;
      const int32_t gid = scan.to_global[lg];
      view.row_group[r] = gid;
      view.member_rows[first_row[gid] + scan.row_offsets[lg]++] = r;
    }
  });
  view.Link(kc, first_row);

  for (size_t i = 0; i < view.groups.size(); ++i) {
    GroupResult& g = view.groups[i];
    if (g.count > 0) g.average = sums[i].Sum() / static_cast<double>(g.count);
  }
  AggregateView out;
  out.data_ = std::move(data);
  return out;
}

AggregateView AggregateView::EvaluateReference(const Table& table,
                                               const GroupByAvgQuery& query) {
  auto data = std::make_shared<Data>();
  Data& view = *data;
  view.query = query;
  view.row_group.assign(table.NumRows(), -1);

  std::vector<const Column*> key_cols;
  key_cols.reserve(query.group_by.size());
  for (const auto& name : query.group_by) {
    key_cols.push_back(&table.column(name));
  }
  const Column& avg_col = table.column(query.avg_attribute);

  const Bitset where_mask =
      query.where.IsEmpty() ? Bitset() : query.where.Evaluate(table);

  // Key rows by the concatenation of group-by cell renderings; group order
  // follows first appearance, matching the production path. Sums stream
  // through the same 64-row blocked-Kahan structure the production path
  // merges shard partials with, so the averages agree bit for bit.
  std::map<std::string, size_t> key_to_group;
  std::vector<BlockedKahan> sums;
  std::vector<std::vector<size_t>> group_rows;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (!query.where.IsEmpty() && !where_mask.Test(r)) continue;
    if (avg_col.IsNull(r)) continue;
    bool null_key = false;
    std::string key_str;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      if (key_cols[k]->IsNull(r)) {
        null_key = true;
        break;
      }
      if (k) key_str += '\x1f';
      key_str += key_cols[k]->GetValue(r).ToString();
    }
    if (null_key) continue;

    auto [it, inserted] =
        key_to_group.try_emplace(key_str, view.groups.size());
    if (inserted) {
      for (const Column* c : key_cols) view.keys.push_back(c->GetValue(r));
      view.groups.emplace_back();
      sums.emplace_back();
      group_rows.emplace_back();
    }
    GroupResult& g = view.groups[it->second];
    sums[it->second].Add(r, avg_col.GetNumeric(r));
    g.count += 1;
    group_rows[it->second].push_back(r);
    view.row_group[r] = static_cast<int32_t>(it->second);
  }
  std::vector<size_t> first_row;
  for (const std::vector<size_t>& rows : group_rows) {
    first_row.push_back(view.member_rows.size());
    view.member_rows.insert(view.member_rows.end(), rows.begin(), rows.end());
  }
  view.Link(key_cols.size(), first_row);
  for (size_t i = 0; i < view.groups.size(); ++i) {
    GroupResult& g = view.groups[i];
    if (g.count > 0) g.average = sums[i].Sum() / static_cast<double>(g.count);
  }
  AggregateView out;
  out.data_ = std::move(data);
  return out;
}

void AggregateView::Data::Link(size_t kc,
                               const std::vector<size_t>& first_row) {
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g].key = {keys.data() + g * kc, kc};
    groups[g].rows = {member_rows.data() + first_row[g], groups[g].count};
  }
}

const AggregateView::Data& AggregateView::Get() const {
  static const Data kEmpty;
  return data_ ? *data_ : kEmpty;
}

std::vector<size_t> AggregateView::ActiveRows() const {
  const std::vector<int32_t>& row_group = Get().row_group;
  std::vector<size_t> rows;
  for (size_t r = 0; r < row_group.size(); ++r) {
    if (row_group[r] >= 0) rows.push_back(r);
  }
  return rows;
}

}  // namespace causumx
