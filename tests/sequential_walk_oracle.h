// Test oracle: the lattice walk of Algorithm 2 as it ran before the walk
// moved onto interned ids and level batches — one Pattern at a time, the
// overlap pre-check through EvalEngine::EvaluateOn, every estimate through
// EstimatorContext::EstimateCate, children deduplicated by Pattern::Hash.
// Slow but simple: test_treatment_miner compares MineTopTreatment and
// MineTopKTreatments against it — the estimate requests (through the
// memo's LRU order), the evaluation count, the survivors and the result.

#ifndef CAUSUMX_TESTS_SEQUENTIAL_WALK_ORACLE_H_
#define CAUSUMX_TESTS_SEQUENTIAL_WALK_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mining/treatment_miner.h"
#include "util/stats.h"

namespace causumx {

/// What the oracle walk saw: its evaluation count, the survivors in
/// materialization order, and the reported treatment.
struct SequentialWalkTrace {
  size_t patterns_evaluated = 0;
  size_t levels_explored = 0;
  std::vector<ScoredTreatment> survivors;
  std::optional<ScoredTreatment> result;
};

namespace sequential_walk_internal {

struct Node {
  Pattern pattern;
  double cate = 0.0;
  double p_value = 1.0;
  bool significant = false;
  EffectEstimate estimate;
};

inline double SignedValue(TreatmentSign sign, double cate) {
  return sign == TreatmentSign::kPositive ? cate : -cate;
}

}  // namespace sequential_walk_internal

/// The walk over `atoms` (a query's level-1 atom list), one node at a
/// time.
inline SequentialWalkTrace SequentialWalk(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& opt) {
  using sequential_walk_internal::Node;
  using sequential_walk_internal::SignedValue;
  SequentialWalkTrace trace;
  const Table& table = estimator.table();
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
    ++trace.patterns_evaluated;
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
    trace.survivors.push_back(ScoredTreatment{node.pattern, node.estimate});
  };

  std::vector<Node> level;
  std::optional<Node> best;
  for (const auto& atom : atoms) {
    Node node = evaluate(Pattern({atom}));
    if (!node.significant) continue;
    if (SignedValue(sign, node.cate) <= near_zero) continue;
    if (!best || SignedValue(sign, node.cate) >
                     SignedValue(sign, best->cate)) {
      best = node;
    }
    collect(node);
    level.push_back(std::move(node));
  }
  trace.levels_explored = 1;
  if (!best) return trace;

  const std::vector<Node> atom_pool = level;
  for (size_t depth = 2; depth <= opt.max_depth && !level.empty(); ++depth) {
    std::sort(level.begin(), level.end(), [&](const Node& a, const Node& b) {
      return SignedValue(sign, a.cate) > SignedValue(sign, b.cate);
    });
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(opt.level_keep_fraction *
                               static_cast<double>(level.size())));
    if (level.size() > keep) level.resize(keep);

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
    const Node* level_best = &next[0];
    for (const auto& n : next) {
      if (SignedValue(sign, n.cate) > SignedValue(sign, level_best->cate)) {
        level_best = &n;
      }
    }
    trace.levels_explored = depth;
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
  result.effect =
      estimator.EstimateCate(result.pattern, outcome, subpopulation);
  trace.result = std::move(result);
  return trace;
}

}  // namespace causumx

#endif  // CAUSUMX_TESTS_SEQUENTIAL_WALK_ORACLE_H_
