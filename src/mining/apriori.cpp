#include "mining/apriori.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

namespace causumx {

namespace {

// An item: attribute index + value. Items are ordered (attr, value-string)
// so candidate generation can use the classic prefix-join.
struct Item {
  size_t attr;
  Value value;
  std::string value_key;

  bool operator<(const Item& other) const {
    if (attr != other.attr) return attr < other.attr;
    return value_key < other.value_key;
  }
  bool operator==(const Item& other) const {
    return attr == other.attr && value_key == other.value_key;
  }
};

struct Itemset {
  std::vector<Item> items;  // sorted
  Bitset rows;
};

}  // namespace

std::vector<FrequentPattern> MineFrequentPatterns(
    const Table& table, const std::vector<std::string>& attributes,
    const AprioriOptions& opt, EvalEngine* engine) {
  const size_t min_count =
      static_cast<size_t>(opt.min_support * table.NumRows());
  std::unique_ptr<EvalEngine> private_engine;
  if (engine == nullptr) {
    private_engine = std::make_unique<EvalEngine>(BorrowTable(table));
    engine = private_engine.get();
  }

  // Level 1: single items with support counting. Item bitsets come from
  // the engine's predicate cache (materialized once per table and reused
  // by every other engine client).
  std::vector<Itemset> level;
  for (const auto& attr_name : attributes) {
    auto idx = table.ColumnIndex(attr_name);
    if (!idx) continue;
    const Column& col = table.column(*idx);
    if (col.NumDistinct() > opt.max_values_per_attribute) continue;
    for (const Value& v : col.DistinctValues()) {
      Item item{*idx, v, v.ToString()};
      Bitset rows = engine->Evaluate(
          Pattern({SimplePredicate(attr_name, CompareOp::kEq, v)}));
      if (rows.Count() >= min_count) {
        level.push_back(Itemset{{item}, std::move(rows)});
      }
    }
  }
  std::sort(level.begin(), level.end(),
            [](const Itemset& a, const Itemset& b) {
              return a.items[0] < b.items[0];
            });

  std::vector<FrequentPattern> result;
  auto emit = [&](const Itemset& is) {
    std::vector<SimplePredicate> preds;
    preds.reserve(is.items.size());
    for (const auto& item : is.items) {
      preds.emplace_back(table.column(item.attr).name(), CompareOp::kEq,
                         item.value);
    }
    FrequentPattern fp;
    fp.pattern = Pattern(std::move(preds));
    fp.rows = is.rows;
    fp.support = is.rows.Count();
    result.push_back(std::move(fp));
  };
  for (const auto& is : level) emit(is);

  // Levelwise expansion: join itemsets sharing a (k-1)-prefix whose last
  // items differ in attribute (conjunctions of two equalities on the same
  // attribute are empty), then verify support.
  for (size_t depth = 2; depth <= opt.max_length && level.size() > 1;
       ++depth) {
    std::vector<Itemset> next;
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        const auto& a = level[i].items;
        const auto& b = level[j].items;
        // Prefix check.
        bool same_prefix = true;
        for (size_t t = 0; t + 1 < a.size(); ++t) {
          if (!(a[t] == b[t])) {
            same_prefix = false;
            break;
          }
        }
        if (!same_prefix) break;  // sorted level => later j's differ too
        if (a.back().attr == b.back().attr) continue;

        Bitset rows = level[i].rows & level[j].rows;
        if (rows.Count() < min_count) continue;

        Itemset merged;
        merged.items = a;
        merged.items.push_back(b.back());
        std::sort(merged.items.begin(), merged.items.end());
        merged.rows = std::move(rows);
        next.push_back(std::move(merged));
      }
    }
    // The subset-prune step of Apriori: all (k-1)-subsets must be frequent.
    // Support intersection already enforces the monotone bound, and our
    // join only sees frequent parents, so explicit pruning is redundant
    // for correctness; we simply dedup.
    std::unordered_set<uint64_t> seen;
    std::vector<Itemset> deduped;
    for (auto& is : next) {
      uint64_t h = 1469598103934665603ULL;
      for (const auto& it : is.items) {
        h ^= std::hash<size_t>{}(it.attr) * 0x9E3779B97F4A7C15ULL;
        for (char c : it.value_key) {
          h ^= static_cast<unsigned char>(c);
          h *= 1099511628211ULL;
        }
      }
      if (seen.insert(h).second) deduped.push_back(std::move(is));
    }
    for (const auto& is : deduped) emit(is);
    level = std::move(deduped);
  }
  return result;
}

}  // namespace causumx
