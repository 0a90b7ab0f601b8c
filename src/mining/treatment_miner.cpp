#include "mining/treatment_miner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <span>
#include <utility>

#include "util/kernels.h"
#include "util/stats.h"

namespace causumx {

namespace {

void EqualityAtoms(const std::string& name, const std::vector<Value>& values,
                   std::vector<SimplePredicate>* atoms) {
  for (const Value& v : values) {
    atoms->emplace_back(name, CompareOp::kEq, v);
  }
}

// Quantile thresholds A < q and A >= q over the non-null values: the
// order statistics at ranks q * (n - 1), selected in ascending rank
// order (each selection leaves every smaller rank to its left, so the
// next one searches only the rest).
void QuantileAtoms(const std::string& name, std::vector<double> vals,
                   const TreatmentMinerOptions& opt,
                   std::vector<SimplePredicate>* atoms) {
  if (vals.size() < 4) return;
  std::set<double> cuts;
  auto from = vals.begin();
  for (size_t b = 1; b <= opt.numeric_bins; ++b) {
    const double q =
        static_cast<double>(b) / static_cast<double>(opt.numeric_bins + 1);
    const auto at = vals.begin() + static_cast<std::ptrdiff_t>(
                                       q * static_cast<double>(vals.size() - 1));
    std::nth_element(from, at, vals.end());
    cuts.insert(*at);
    from = at;
  }
  for (double c : cuts) {
    atoms->emplace_back(name, CompareOp::kLt, Value(c));
    atoms->emplace_back(name, CompareOp::kGe, Value(c));
  }
}

// True when the column's atoms are equality items (else quantiles).
// `distinct` is the column's cached distinct count.
bool UseEqualityAtoms(const Column& col, size_t distinct,
                      const TreatmentMinerOptions& opt) {
  const bool small_domain = distinct <= opt.max_values_per_attribute;
  if (col.type() == ColumnType::kCategorical) return small_domain;
  return small_domain &&
         distinct <= std::max<size_t>(opt.numeric_bins * 2, 8);
}

double SignedValue(TreatmentSign sign, double cate) {
  return sign == TreatmentSign::kPositive ? cate : -cate;
}

uint64_t HashIds(std::span<const PredicateId> ids) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (PredicateId id : ids) h = (h ^ id) * 0x100000001B3ULL;
  return h;
}

// Lattice nodes of one arity, stored flat: per node, `arity` positions
// in the atom pool, the `arity` sorted interned predicate ids of its
// treatment, its raw treated-row count and (once evaluated) estimate.
struct Nodes {
  explicit Nodes(size_t a) : arity(a) {}

  size_t size() const { return treated.size(); }
  std::span<const uint32_t> Members(size_t i) const {
    return {members.data() + i * arity, arity};
  }
  std::span<const PredicateId> Ids(size_t i) const {
    return {ids.data() + i * arity, arity};
  }
  double Cate(size_t i) const { return estimates[i].cate; }
  void Add(std::span<const uint32_t> m, std::span<const PredicateId> p,
           size_t count, const EffectEstimate& est = {}) {
    members.insert(members.end(), m.begin(), m.end());
    ids.insert(ids.end(), p.begin(), p.end());
    treated.push_back(count);
    estimates.push_back(est);
  }
  void Clear() {
    members.clear();
    ids.clear();
    treated.clear();
    estimates.clear();
  }

  size_t arity;
  std::vector<uint32_t> members;
  std::vector<PredicateId> ids;
  std::vector<size_t> treated;
  std::vector<EffectEstimate> estimates;
};

// The id lists one level generated, for exact dedup: open addressing
// over their hashes, confirmed by comparing the ids.
class IdListSet {
 public:
  explicit IdListSet(size_t arity) : arity_(arity), slots_(64, kEmpty) {}

  // Inserts `ids` unless present; returns whether it was new.
  bool Insert(std::span<const PredicateId> ids) {
    const uint64_t h = HashIds(ids);
    size_t slot = h & (slots_.size() - 1);
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & (slots_.size() - 1)) {
      const uint32_t e = slots_[slot];
      if (hashes_[e] == h &&
          std::equal(ids.begin(), ids.end(), store_.begin() + e * arity_)) {
        return false;
      }
    }
    slots_[slot] = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    store_.insert(store_.end(), ids.begin(), ids.end());
    if (2 * hashes_.size() > slots_.size()) Grow();
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  void Grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    for (uint32_t e = 0; e < hashes_.size(); ++e) {
      size_t slot = hashes_[e] & (slots_.size() - 1);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = e;
    }
  }

  size_t arity_;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;  // per stored list
  std::vector<PredicateId> store_;  // arity_ ids per stored list
};

// The best node so far.
struct Incumbent {
  std::vector<uint32_t> members;
  std::vector<PredicateId> ids;
  EffectEstimate estimate;
};

// The lattice walk shared by the top-1 and top-k entry points, over the
// query's level-1 `atoms` (CausalTreatmentAtoms). When `survivors` is
// non-null, every sign-consistent significant node that was materialized
// is appended to it.
//
// The walk runs on interned ids: the query's atoms are interned once, a
// node carries sorted predicate ids, and its treated rows are its
// parent's AND one atom's, so the overlap pre-check is a popcount. Each level
// is generated in Algorithm 2's order and estimated as batches
// (EstimatorContext::EstimateCates), then replayed in that order; a
// batch never holds more children than the level may still accept
// (max_level_width - next.size()), so the width cap cuts at the same
// child as one-at-a-time evaluation would. Patterns are built only for
// reported nodes.
std::optional<ScoredTreatment> RunLatticeWalk(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const TreatmentAtoms& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& opt,
    TreatmentMiningStats* stats, std::vector<ScoredTreatment>* survivors) {
  const Table& table = estimator.table();

  // Near-zero threshold scaled by the outcome spread in the subpopulation
  // (kept with the interned subpopulation, so the walk of the other sign
  // and later queries reuse it).
  table.column(outcome);  // throws on an unknown outcome attribute
  EstimatorContext::Scope scope = estimator.Bind(subpopulation, outcome);
  const RunningStats& y_stats = estimator.OutcomeStats(scope);
  const double near_zero = opt.near_zero_fraction * y_stats.StdDev();
  const size_t subpop_size = y_stats.Count();
  const size_t min_treated = std::max<size_t>(
      estimator.options().min_group_size,
      static_cast<size_t>(opt.min_treated_fraction *
                          static_cast<double>(subpop_size)));

  // Every treated-row set lies within the subpopulation's words
  // [word_begin, word_end), so every AND and popcount below scans only
  // those.
  size_t word_begin = 0;
  size_t word_end = 0;
  for (size_t w = 0; w < subpopulation.num_words(); ++w) {
    if (subpopulation.data()[w] == 0) continue;
    if (word_end == 0) word_begin = w;
    word_end = w + 1;
  }
  // Those words shard by shard: atom rows are read in place from the
  // engine's cached shard segments (word-aligned, since shard sizes are
  // multiples of 64 rows), never copied into whole-table bitsets.
  struct ShardWords {
    size_t shard;
    size_t first;       // the shard's first table word
    size_t begin, end;  // its table words within [word_begin, word_end)
  };
  std::vector<ShardWords> shards;
  const ShardPlan& plan = estimator.engine()->plan();
  for (size_t s = 0; s < plan.NumShards(); ++s) {
    const size_t first = plan.ShardBegin(s) / 64;
    const size_t begin = std::max(first, word_begin);
    const size_t end = std::min((plan.ShardEnd(s) + 63) / 64, word_end);
    if (begin < end) shards.push_back({s, first, begin, end});
  }
  auto atom_words = [&](size_t a, const ShardWords& sw) {
    return atoms.segments[a][sw.shard]->data() + (sw.begin - sw.first);
  };

  const size_t subpop_count = subpopulation.Count();
  // The raw treated count of `rows` ⊆ the subpopulation AND atom `a`.
  auto count_with = [&](const Bitset& rows, size_t count, size_t a) {
    for (const ShardWords& sw : shards) {
      count -= kernels::AndNotPopcount(rows.data() + sw.begin,
                                       atom_words(a, sw), sw.end - sw.begin);
    }
    return count;
  };

  // The atom pool: the level-1 survivors, as indices into `atoms`.
  std::vector<uint32_t> pool;
  auto pattern_of = [&](std::span<const uint32_t> members) {
    std::vector<SimplePredicate> preds;
    preds.reserve(members.size());
    for (uint32_t m : members) preds.push_back(atoms.predicates[pool[m]]);
    return Pattern(std::move(preds));
  };
  // A survivor: significant, of the requested sign and above near-zero
  // (ComputeCATEnFilter).
  auto survives = [&](const EffectEstimate& est) {
    return est.valid && est.n_treated >= min_treated &&
           est.p_value <= opt.alpha &&
           SignedValue(sign, est.cate) > near_zero;
  };
  auto collect = [&](std::span<const uint32_t> members,
                     const EffectEstimate& est) {
    if (survivors != nullptr) {
      survivors->push_back(ScoredTreatment{pattern_of(members), est});
    }
  };

  // Estimates `batch` (children in generation order) and calls keep(i)
  // for each survivor i, in order, with its estimate filled in. A child
  // whose raw treated count is below min_treated is not estimated: the
  // raw count upper bounds est.n_treated (which the null-outcome filter
  // and sampling shrink further), so the estimate would be rejected
  // anyway.
  std::vector<PredicateId> request;
  auto evaluate = [&](Nodes& batch, auto&& keep) {
    request.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto ids = batch.Ids(i);
      if (stats) ++stats->patterns_evaluated;
      if (batch.treated[i] >= min_treated) {
        request.insert(request.end(), ids.begin(), ids.end());
      }
    }
    std::vector<EffectEstimate> estimates(request.size() / batch.arity);
    estimator.EstimateCates(scope, request, batch.arity, estimates.data());
    size_t e = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.treated[i] < min_treated) continue;
      batch.estimates[i] = estimates[e++];
      if (survives(batch.estimates[i])) keep(i);
    }
    batch.Clear();
  };

  // Level 1: atomic predicates (GenChildren in the paper's pseudocode),
  // one batch. Level-1 survivors become the atom pool.
  Nodes batch(1);
  for (uint32_t a = 0; a < atoms.size(); ++a) {
    // A level-1 node's member is its atom until it joins the pool.
    batch.Add({&a, 1}, {&atoms.ids[a], 1},
              count_with(subpopulation, subpop_count, a));
  }
  Nodes level(1);
  std::optional<Incumbent> best;
  evaluate(batch, [&](size_t i) {
    const uint32_t position = static_cast<uint32_t>(pool.size());
    pool.push_back(batch.members[i]);
    const EffectEstimate& est = batch.estimates[i];
    if (!best || SignedValue(sign, est.cate) >
                     SignedValue(sign, best->estimate.cate)) {
      best = Incumbent{{position}, {atoms.ids[pool.back()]}, est};
    }
    collect({&position, 1}, est);
    level.Add({&position, 1}, batch.Ids(i), batch.treated[i], est);
  });
  if (stats) stats->levels_explored = 1;
  if (!best) return std::nullopt;

  // Attribute compatibility of two pool atoms: equality predicates may
  // not repeat an attribute; ordered predicates may pair into ranges when
  // their ops differ.
  const size_t pool_size = pool.size();
  std::vector<size_t> column(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    column[i] = *table.ColumnIndex(atoms.predicates[pool[i]].attribute);
  }
  std::vector<uint8_t> conflict(pool_size * pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    const CompareOp op_i = atoms.predicates[pool[i]].op;
    for (size_t j = 0; j < pool_size; ++j) {
      const CompareOp op_j = atoms.predicates[pool[j]].op;
      conflict[i * pool_size + j] =
          column[i] == column[j] &&
          (op_i == CompareOp::kEq || op_j == CompareOp::kEq || op_i == op_j);
    }
  }

  // Deeper levels: expand only while the incumbent improves (Algorithm 2
  // terminates at the first level that fails to contain the max).
  std::vector<uint32_t> order;
  std::vector<uint32_t> child_members;
  std::vector<PredicateId> child_ids;
  Bitset parent_rows(subpopulation.size());  // zero outside the words
  for (size_t depth = 2; depth <= opt.max_depth && level.size() > 0;
       ++depth) {
    // Optimization (b): only the strongest half of the level expands.
    order.resize(level.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return SignedValue(sign, level.Cate(a)) > SignedValue(sign, level.Cate(b));
    });
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(opt.level_keep_fraction *
                               static_cast<double>(level.size())));
    if (order.size() > keep) order.resize(keep);

    // GenChildrenNextLevel: extend each kept node by one compatible pool
    // atom (every materialized parent we know of carries the right sign).
    Nodes next(depth);
    batch = Nodes(depth);
    auto keep_child = [&](size_t i) {
      collect(batch.Members(i), batch.estimates[i]);
      next.Add(batch.Members(i), batch.Ids(i), batch.treated[i],
               batch.estimates[i]);
    };
    IdListSet seen(depth);
    size_t batch_cap = 0;  // children the pending batch may hold
    bool width_exceeded = false;
    for (size_t o = 0; o < order.size() && !width_exceeded; ++o) {
      const std::span<const uint32_t> members = level.Members(order[o]);
      const std::span<const PredicateId> ids = level.Ids(order[o]);
      const size_t treated = level.treated[order[o]];
      for (const ShardWords& sw : shards) {
        uint64_t* words = parent_rows.mutable_data() + sw.begin;
        const size_t n = sw.end - sw.begin;
        std::copy_n(subpopulation.data() + sw.begin, n, words);
        for (uint32_t m : members) {
          kernels::AndWords(words, atom_words(pool[m], sw), n);
        }
      }
      for (uint32_t p = 0; p < pool_size; ++p) {
        bool clash = false;
        for (uint32_t m : members) clash |= conflict[m * pool_size + p] != 0;
        if (clash) continue;
        const PredicateId id = atoms.ids[pool[p]];
        const auto at = std::lower_bound(ids.begin(), ids.end(), id);
        if (at != ids.end() && *at == id) continue;
        child_ids.assign(ids.begin(), at);
        child_ids.push_back(id);
        child_ids.insert(child_ids.end(), at, ids.end());
        if (!seen.Insert(child_ids)) continue;
        if (batch.size() == 0) {
          if (next.size() >= opt.max_level_width) {
            width_exceeded = true;
            break;
          }
          batch_cap = opt.max_level_width - next.size();
        }
        child_members.assign(members.begin(), members.end());
        child_members.push_back(p);
        batch.Add(child_members, child_ids,
                  count_with(parent_rows, treated, pool[p]));
        if (batch.size() == batch_cap) evaluate(batch, keep_child);
      }
    }
    evaluate(batch, keep_child);
    if (next.size() == 0) break;

    // Termination check (lines 10-13): stop when the level's best does not
    // beat the incumbent.
    size_t level_best = 0;
    for (size_t i = 1; i < next.size(); ++i) {
      if (SignedValue(sign, next.Cate(i)) >
          SignedValue(sign, next.Cate(level_best))) {
        level_best = i;
      }
    }
    if (stats) stats->levels_explored = depth;
    if (SignedValue(sign, next.Cate(level_best)) >
        SignedValue(sign, best->estimate.cate)) {
      const auto m = next.Members(level_best);
      const auto p = next.Ids(level_best);
      best = Incumbent{{m.begin(), m.end()},
                       {p.begin(), p.end()},
                       next.estimates[level_best]};
      level = std::move(next);
    } else {
      break;
    }
  }

  // The incumbent's final re-estimate (a memo hit unless evicted).
  ScoredTreatment result;
  result.pattern = pattern_of(best->members);
  estimator.EstimateCates(scope, best->ids, best->ids.size(), &result.effect);
  return result;
}

}  // namespace

std::vector<SimplePredicate> GenerateAtomicTreatments(
    EvalEngine& engine, const std::vector<std::string>& attributes,
    const TreatmentMinerOptions& opt) {
  const Table& table = engine.table();
  std::vector<SimplePredicate> atoms;
  for (const auto& name : attributes) {
    auto idx = table.ColumnIndex(name);
    if (!idx) continue;
    const Column& col = table.column(*idx);
    const size_t distinct = engine.NumDistinct(*idx);
    if (distinct < 2) continue;

    if (UseEqualityAtoms(col, distinct, opt)) {
      EqualityAtoms(name, *engine.DistinctValues(*idx), &atoms);
    } else if (col.type() != ColumnType::kCategorical) {
      // Quantile cuts over the non-null values of the cached numeric
      // view, taken in row order.
      const NumericColumnView& view = engine.Numeric(*idx);
      std::vector<double> vals;
      vals.reserve(view.values.size());
      for (size_t r = 0; r < view.values.size(); ++r) {
        if (view.valid.Test(r)) vals.push_back(view.values[r]);
      }
      QuantileAtoms(name, std::move(vals), opt, &atoms);
    }
  }
  return atoms;
}

TreatmentAtoms::TreatmentAtoms(EvalEngine& engine,
                               std::vector<SimplePredicate> preds)
    : predicates(std::move(preds)) {
  ids.reserve(predicates.size());
  segments.reserve(predicates.size());
  for (const SimplePredicate& p : predicates) {
    ids.push_back(engine.Intern(p));
    segments.push_back(engine.PredicateSegments(ids.back()));
  }
}

TreatmentAtoms CausalTreatmentAtoms(
    EstimatorContext& estimator, const std::string& outcome,
    const std::vector<std::string>& treatment_attributes,
    const TreatmentMinerOptions& opt) {
  // Optimization (a): restrict to attributes with a causal path to the
  // outcome in the DAG (they are the only ones with nonzero true effects).
  const CausalDag& dag = estimator.dag();
  const std::set<std::string> ancestors = dag.CausalAncestorsOf(outcome);
  std::vector<std::string> causal_attrs;
  for (const auto& a : treatment_attributes) {
    if (!dag.HasNode(a) || ancestors.count(a)) {
      // Attributes missing from the DAG are kept (unknown structure), the
      // ones present but causally unrelated are pruned.
      causal_attrs.push_back(a);
    }
  }
  return TreatmentAtoms(
      *estimator.engine(),
      GenerateAtomicTreatments(*estimator.engine(), causal_attrs, opt));
}

std::optional<ScoredTreatment> MineTopTreatment(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const TreatmentAtoms& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& options,
    TreatmentMiningStats* stats) {
  return RunLatticeWalk(estimator, subpopulation, outcome, atoms, sign,
                        options, stats, nullptr);
}

std::vector<ScoredTreatment> MineTopKTreatments(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const TreatmentAtoms& atoms,
    TreatmentSign sign, size_t k, const TreatmentMinerOptions& opt) {
  std::vector<ScoredTreatment> survivors;
  RunLatticeWalk(estimator, subpopulation, outcome, atoms, sign, opt,
                 nullptr, &survivors);
  std::sort(survivors.begin(), survivors.end(),
            [](const ScoredTreatment& a, const ScoredTreatment& b) {
              return std::fabs(a.effect.cate) > std::fabs(b.effect.cate);
            });
  // Drop patterns whose treated set duplicates a stronger pattern's
  // (treated sets come from the engine's cached bitsets).
  std::vector<ScoredTreatment> out;
  BitsetDedup seen_rows;
  EvalEngine& engine = *estimator.engine();
  for (auto& st : survivors) {
    if (out.size() >= k) break;
    if (!seen_rows.Insert(engine.EvaluateOn(st.pattern, subpopulation))) {
      continue;
    }
    out.push_back(std::move(st));
  }
  return out;
}

}  // namespace causumx
