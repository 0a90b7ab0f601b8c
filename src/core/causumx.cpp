#include "core/causumx.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "lp/rounding.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace causumx {

namespace {

// Length-prefixed fields keep MiningKey unambiguous for any attribute
// name or string value.
void PutField(std::string* key, const std::string& field) {
  *key += std::to_string(field.size());
  key->push_back(':');
  *key += field;
}

void PutNumber(std::string* key, double x) {
  PutField(key, StrFormat("%.17g", x));
}

void PutCount(std::string* key, uint64_t n) {
  PutField(key, std::to_string(n));
}

void PutList(std::string* key, const std::vector<std::string>& list) {
  PutCount(key, list.size());
  for (const std::string& s : list) PutField(key, s);
}

void PutValue(std::string* key, const Value& v) {
  if (v.is_null()) {
    PutField(key, "n");
  } else if (v.is_int()) {
    PutField(key, "i" + std::to_string(v.AsInt()));
  } else if (v.is_double()) {
    PutField(key, StrFormat("d%.17g", v.AsDouble()));
  } else {
    PutField(key, "s" + v.AsString());
  }
}

// The engine a run builds when its caller lends neither an engine nor
// a pool (see MineExplanationCandidates in core/causumx.h). The only
// reader of config.num_threads.
std::shared_ptr<EvalEngine> MakeRunEngine(std::shared_ptr<const Table> table,
                                          const CauSumXConfig& config) {
  EvalEngineOptions options;
  options.num_shards = 0;  // one shard per pool worker
  const size_t threads = config.num_threads == 0 ? ThreadPool::DefaultThreads()
                                                 : config.num_threads;
  if (threads > 1) options.pool = std::make_shared<ThreadPool>(threads);
  return std::make_shared<EvalEngine>(std::move(table), std::move(options));
}

}  // namespace

CandidateMiningResult MineExplanationCandidates(
    const Table& table, const GroupByAvgQuery& query, const CausalDag& dag,
    const CauSumXConfig& config, std::shared_ptr<EvalEngine> engine,
    std::shared_ptr<EstimatorContext> estimator_ctx, ThreadPool* pool) {
  // A run mines on the pool it is lent, else on its engine's pool. Only
  // a run lent neither builds its engine with a pool of its own.
  if (engine == nullptr) {
    engine = pool == nullptr
                 ? MakeRunEngine(BorrowTable(table), config)
                 : std::make_shared<EvalEngine>(BorrowTable(table));
  }
  if (pool == nullptr) pool = engine->pool();
  if (estimator_ctx == nullptr) {
    estimator_ctx = std::make_shared<EstimatorContext>(engine, dag,
                                                       config.estimator);
  }
  CandidateMiningResult result;
  Timer timer;

  // Evaluate the aggregate view Q(D), shard-parallel over the engine's
  // plan (bit-identical to the serial path for every plan).
  result.view =
      AggregateView::Evaluate(table, query, engine->plan(), pool);
  const AggregateView& view = result.view;
  const size_t m = view.NumGroups();
  if (m == 0) return result;

  // Attribute partition around the query (Section 4.1). An explicit
  // allowlist (the paper's protocol — it pre-selects grouping attributes
  // per dataset) overrides FD detection.
  if (!config.grouping_attribute_allowlist.empty()) {
    result.partition.grouping_attributes =
        config.grouping_attribute_allowlist;
    for (const auto& name : table.ColumnNames()) {
      if (name == query.avg_attribute) continue;
      bool is_gb = false;
      for (const auto& gb : query.group_by) {
        if (name == gb) is_gb = true;
      }
      bool is_grouping = false;
      for (const auto& ga : config.grouping_attribute_allowlist) {
        if (name == ga) is_grouping = true;
      }
      if (!is_gb && !is_grouping) {
        result.partition.treatment_attributes.push_back(name);
      }
    }
  } else {
    result.partition =
        PartitionAttributes(table, query.group_by, query.avg_attribute);
  }

  // ---- Phase 1: grouping patterns (Section 5.1). --------------------------
  timer.Reset();
  // config.apriori_support is the master support knob: propagate it here
  // so mutating it after construction cannot silently diverge from
  // grouping.apriori.min_support (set once in the ctor).
  GroupingMinerOptions gopt = config.grouping;
  gopt.apriori.min_support = config.apriori_support;
  std::vector<GroupingPattern> grouping = MineGroupingPatterns(
      table, view, result.partition.grouping_attributes, gopt, engine.get());
  result.num_grouping_candidates = grouping.size();
  result.timings.Add("grouping", timer.Seconds());

  // ---- Phase 2: treatment patterns (Section 5.2, Algorithm 2). ------------
  timer.Reset();
  const std::vector<std::string>& treatment_attrs =
      config.treatment_attribute_allowlist.empty()
          ? result.partition.treatment_attributes
          : config.treatment_attribute_allowlist;
  // Optimization (a) and the level-1 atoms depend on the query only:
  // build them once, and every walk reads the list (none without walks,
  // so an empty phase 1 builds no column views).
  const std::vector<SimplePredicate> atoms =
      grouping.empty()
          ? std::vector<SimplePredicate>{}
          : CausalTreatmentAtoms(*estimator_ctx, query.avg_attribute,
                                 treatment_attrs, config.treatment);

  std::vector<Explanation> candidates(grouping.size());
  std::atomic<size_t> evaluated{0};
  const auto mine_one = [&](size_t gi) {
    const GroupingPattern& gp = grouping[gi];
    Explanation exp;
    exp.grouping_pattern = gp.pattern;
    exp.group_coverage = gp.group_coverage;

    TreatmentMiningStats stats;
    auto pos = MineTopTreatment(
        *estimator_ctx, gp.rows, query.avg_attribute, atoms,
        TreatmentSign::kPositive, config.treatment, &stats);
    if (pos) exp.positive = TreatmentSide{pos->pattern, pos->effect};
    if (config.mine_negative) {
      auto neg = MineTopTreatment(
          *estimator_ctx, gp.rows, query.avg_attribute, atoms,
          TreatmentSign::kNegative, config.treatment, &stats);
      if (neg) exp.negative = TreatmentSide{neg->pattern, neg->effect};
    }
    evaluated.fetch_add(stats.patterns_evaluated);
    candidates[gi] = std::move(exp);
  };
  if (pool != nullptr) {
    pool->ParallelFor(grouping.size(), mine_one);
  } else {
    // Serial: neither the caller nor the engine has a pool.
    for (size_t gi = 0; gi < grouping.size(); ++gi) mine_one(gi);
  }
  result.treatment_patterns_evaluated = evaluated.load();

  // Drop grouping patterns for which no treatment was found (no causal
  // story to tell for those groups).
  result.candidates.reserve(candidates.size());
  for (auto& c : candidates) {
    if (c.Weight() > 0.0) result.candidates.push_back(std::move(c));
  }
  result.timings.Add("treatment", timer.Seconds());
  result.cache_stats.eval = engine->Stats();
  result.cache_stats.estimator = estimator_ctx->Stats();
  return result;
}

std::string MiningKey(const GroupByAvgQuery& query,
                      const CauSumXConfig& config) {
  std::string key;
  PutList(&key, query.group_by);
  PutField(&key, query.avg_attribute);
  PutCount(&key, query.where.predicates().size());
  for (const SimplePredicate& p : query.where.predicates()) {
    PutField(&key, p.attribute);
    PutCount(&key, static_cast<uint64_t>(p.op));
    PutValue(&key, p.value);
  }
  PutNumber(&key, config.apriori_support);
  const GroupingMinerOptions& g = config.grouping;
  PutCount(&key, g.apriori.max_length);
  PutCount(&key, g.apriori.max_values_per_attribute);
  PutCount(&key, g.include_per_group_patterns ? 1 : 0);
  const TreatmentMinerOptions& t = config.treatment;
  PutCount(&key, t.max_depth);
  PutNumber(&key, t.near_zero_fraction);
  PutNumber(&key, t.level_keep_fraction);
  PutCount(&key, t.max_level_width);
  PutCount(&key, t.max_values_per_attribute);
  PutCount(&key, t.numeric_bins);
  PutNumber(&key, t.alpha);
  PutNumber(&key, t.min_treated_fraction);
  const EstimatorOptions& e = config.estimator;
  PutCount(&key, e.min_group_size);
  PutCount(&key, e.sample_cap);
  PutCount(&key, e.sample_seed);
  PutCount(&key, e.max_onehot_levels);
  PutCount(&key, static_cast<uint64_t>(e.method));
  PutNumber(&key, e.propensity_clip);
  PutCount(&key, config.mine_negative ? 1 : 0);
  PutList(&key, config.treatment_attribute_allowlist);
  PutList(&key, config.grouping_attribute_allowlist);
  return key;
}

ExplanationSummary SelectExplanations(
    const std::vector<Explanation>& candidates, size_t num_groups,
    const CauSumXConfig& config, PhaseTimer* timings, ThreadPool* pool) {
  Timer timer;
  ExplanationSummary summary;
  summary.num_groups = num_groups;

  SelectionProblem problem;
  problem.num_groups = num_groups;
  problem.k = config.k;
  problem.theta = config.theta;
  problem.candidates.reserve(candidates.size());
  for (const auto& c : candidates) {
    problem.candidates.push_back(
        SelectionCandidate{c.Weight(), c.group_coverage});
  }
  SelectionResult sel;
  switch (config.solver) {
    case FinalStepSolver::kLpRounding:
      sel = SolveByLpRounding(problem, config.rounding_rounds, config.seed);
      break;
    case FinalStepSolver::kGreedy:
      sel = SolveGreedy(problem, /*gain_bonus=*/0.0, pool);
      break;
    case FinalStepSolver::kExact:
      sel = SolveExact(problem);
      break;
  }
  // The paper's rounding returns "no solution" when the ILP is infeasible
  // (e.g. k patterns cannot reach theta coverage, as on German with
  // one-group patterns). A library should still hand back its best
  // effort, so fall back to coverage-greedy selection and let
  // coverage_satisfied report the violation.
  if (sel.selected.empty() && !candidates.empty()) {
    sel = SolveGreedy(problem, /*gain_bonus=*/1.0, pool);
  }

  Bitset covered(num_groups);
  for (size_t j : sel.selected) {
    summary.explanations.push_back(candidates[j]);
    summary.total_explainability += candidates[j].Weight();
    covered |= candidates[j].group_coverage;
  }
  // Deterministic presentation order: strongest first.
  std::sort(summary.explanations.begin(), summary.explanations.end(),
            [](const Explanation& a, const Explanation& b) {
              return a.Weight() > b.Weight();
            });
  summary.covered_groups = covered.Count();
  summary.coverage_satisfied =
      summary.covered_groups >= problem.RequiredCoverage();
  if (timings != nullptr) timings->Add("selection", timer.Seconds());
  return summary;
}

CauSumXResult ResultFromCandidates(const CandidateMiningResult& mined,
                                   const CauSumXConfig& config,
                                   ThreadPool* pool) {
  CauSumXResult result;
  result.view = mined.view;
  result.partition = mined.partition;
  result.num_grouping_candidates = mined.num_grouping_candidates;
  result.num_candidates_with_treatment = mined.candidates.size();
  result.treatment_patterns_evaluated = mined.treatment_patterns_evaluated;
  result.cache_stats = mined.cache_stats;
  if (result.view.NumGroups() == 0) return result;
  result.summary = SelectExplanations(mined.candidates,
                                      result.view.NumGroups(), config,
                                      &result.timings, pool);
  return result;
}

CauSumXResult RunCauSumX(const Table& table, const GroupByAvgQuery& query,
                         const CausalDag& dag, const CauSumXConfig& config,
                         std::shared_ptr<EvalEngine> engine,
                         std::shared_ptr<EstimatorContext> estimator_ctx,
                         ThreadPool* pool) {
  const CandidateMiningResult mined =
      MineExplanationCandidates(table, query, dag, config, std::move(engine),
                                std::move(estimator_ctx), pool);
  CauSumXResult result = ResultFromCandidates(mined, config, pool);
  for (const auto& [phase, seconds] : mined.timings.phases()) {
    result.timings.Add(phase, seconds);
  }
  return result;
}

}  // namespace causumx
