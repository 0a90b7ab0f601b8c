#include "mining/treatment_miner.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <utility>

#include "util/stats.h"

namespace causumx {

namespace {

void EqualityAtoms(const std::string& name, const std::vector<Value>& values,
                   std::vector<SimplePredicate>* atoms) {
  for (const Value& v : values) {
    atoms->emplace_back(name, CompareOp::kEq, v);
  }
}

// Quantile thresholds A < q and A >= q over the sorted non-null values.
void QuantileAtoms(const std::string& name, std::vector<double> vals,
                   const TreatmentMinerOptions& opt,
                   std::vector<SimplePredicate>* atoms) {
  if (vals.size() < 4) return;
  std::sort(vals.begin(), vals.end());
  std::set<double> cuts;
  for (size_t b = 1; b <= opt.numeric_bins; ++b) {
    const double q =
        static_cast<double>(b) / static_cast<double>(opt.numeric_bins + 1);
    cuts.insert(vals[static_cast<size_t>(q * (vals.size() - 1))]);
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

struct Node {
  Pattern pattern;
  double cate = 0.0;
  double p_value = 1.0;
  bool significant = false;
  EffectEstimate estimate;
};

double SignedValue(TreatmentSign sign, double cate) {
  return sign == TreatmentSign::kPositive ? cate : -cate;
}

// The lattice walk shared by the top-1 and top-k entry points, over the
// query's level-1 `atoms` (CausalTreatmentAtoms). When `survivors` is
// non-null, every sign-consistent significant node that was materialized
// is appended to it.
std::optional<ScoredTreatment> RunLatticeWalk(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& opt,
    TreatmentMiningStats* stats, std::vector<ScoredTreatment>* survivors) {
  const Table& table = estimator.table();

  // Near-zero threshold scaled by the outcome spread in the subpopulation
  // (outcome reads go through the engine's cached numeric view).
  EvalEngine& engine = *estimator.engine();
  table.column(outcome);  // throws on an unknown outcome attribute
  const NumericColumnView& y_view =
      engine.Numeric(*table.ColumnIndex(outcome));
  RunningStats y_stats;
  for (size_t r : subpopulation.ToIndices()) {
    if (y_view.valid.Test(r)) y_stats.Add(y_view.values[r]);
  }
  const double near_zero = opt.near_zero_fraction * y_stats.StdDev();
  const size_t subpop_size = y_stats.Count();
  const size_t min_treated = std::max<size_t>(
      estimator.options().min_group_size,
      static_cast<size_t>(opt.min_treated_fraction *
                          static_cast<double>(subpop_size)));

  auto evaluate = [&](const Pattern& p) -> Node {
    Node node;
    node.pattern = p;
    if (stats) ++stats->patterns_evaluated;
    // Cheap overlap reject before the full estimate: a lattice child's
    // treated set is its parent's set AND one cached atom bitset, so the
    // raw treated count costs a few word-wise ANDs. The raw count upper
    // bounds est.n_treated (which is further shrunk by the null-outcome
    // filter and sampling), so every pattern skipped here would have
    // been rejected by the est.n_treated check below anyway.
    if (engine.EvaluateOn(p, subpopulation).Count() < min_treated) {
      return node;
    }
    const EffectEstimate est =
        estimator.EstimateCate(p, outcome, subpopulation);
    if (!est.valid || est.n_treated < min_treated) return node;
    node.cate = est.cate;
    node.p_value = est.p_value;
    node.significant = est.p_value <= opt.alpha;
    node.estimate = est;
    return node;
  };
  auto collect = [&](const Node& node) {
    if (survivors != nullptr) {
      survivors->push_back(ScoredTreatment{node.pattern, node.estimate});
    }
  };

  // Level 1: atomic predicates (GenChildren in the paper's pseudocode).
  std::vector<Node> level;
  level.reserve(atoms.size());
  std::optional<Node> best;
  for (const auto& atom : atoms) {
    Node node = evaluate(Pattern({atom}));
    if (!node.significant) continue;
    // ComputeCATEnFilter: keep only the requested sign above near-zero.
    if (SignedValue(sign, node.cate) <= near_zero) continue;
    if (!best || SignedValue(sign, node.cate) >
                     SignedValue(sign, best->cate)) {
      best = node;
    }
    collect(node);
    level.push_back(std::move(node));
  }
  if (stats) stats->levels_explored = 1;
  if (!best) return std::nullopt;

  // Level-1 survivors double as the atom pool for expansion: a child is a
  // node plus one surviving atom, so every materialized parent we know of
  // carries the right sign (the paper's GenChildrenNextLevel).
  const std::vector<Node> atom_pool = level;

  // Deeper levels: expand only while the incumbent improves (Algorithm 2
  // terminates at the first level that fails to contain the max).
  for (size_t depth = 2; depth <= opt.max_depth && !level.empty(); ++depth) {
    // Optimization (b): only the strongest half of the level expands.
    std::sort(level.begin(), level.end(), [&](const Node& a, const Node& b) {
      return SignedValue(sign, a.cate) > SignedValue(sign, b.cate);
    });
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(opt.level_keep_fraction *
                               static_cast<double>(level.size())));
    if (level.size() > keep) level.resize(keep);

    // GenChildrenNextLevel: extend each kept node by one surviving atom
    // whose attribute is compatible (equality predicates may not repeat an
    // attribute; ordered predicates may pair into ranges when ops differ).
    std::vector<Node> next;
    std::unordered_set<uint64_t> seen;
    bool width_exceeded = false;
    for (size_t i = 0; i < level.size() && !width_exceeded; ++i) {
      for (const auto& atom_node : atom_pool) {
        const SimplePredicate& atom = atom_node.pattern.predicates()[0];
        bool conflict = false;
        for (const auto& pa : level[i].pattern.predicates()) {
          if (pa.attribute == atom.attribute &&
              (pa.op == CompareOp::kEq || atom.op == CompareOp::kEq ||
               pa.op == atom.op)) {
            conflict = true;
            break;
          }
        }
        if (conflict) continue;
        Pattern child = level[i].pattern.With(atom);
        if (child.Size() != depth) continue;
        if (!seen.insert(child.Hash()).second) continue;
        if (next.size() >= opt.max_level_width) {
          width_exceeded = true;
          break;
        }
        Node node = evaluate(child);
        if (!node.significant) continue;
        if (SignedValue(sign, node.cate) <= near_zero) continue;
        collect(node);
        next.push_back(std::move(node));
      }
    }
    if (next.empty()) break;

    // Termination check (lines 10-13): stop when the level's best does not
    // beat the incumbent.
    const Node* level_best = &next[0];
    for (const auto& n : next) {
      if (SignedValue(sign, n.cate) > SignedValue(sign, level_best->cate)) {
        level_best = &n;
      }
    }
    if (stats) stats->levels_explored = depth;
    if (SignedValue(sign, level_best->cate) >
        SignedValue(sign, best->cate)) {
      best = *level_best;
      level = std::move(next);
    } else {
      break;
    }
  }

  ScoredTreatment result;
  result.pattern = best->pattern;
  result.effect = estimator.EstimateCate(result.pattern, outcome,
                                         subpopulation);
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

std::vector<SimplePredicate> CausalTreatmentAtoms(
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
  return GenerateAtomicTreatments(*estimator.engine(), causal_attrs, opt);
}

std::optional<ScoredTreatment> MineTopTreatment(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& options,
    TreatmentMiningStats* stats) {
  return RunLatticeWalk(estimator, subpopulation, outcome, atoms, sign,
                        options, stats, nullptr);
}

std::vector<ScoredTreatment> MineTopKTreatments(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
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
