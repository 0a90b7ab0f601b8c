// The CauSumX algorithm (Algorithm 1 of the paper): end-to-end generation
// of a summarized causal explanation for an aggregate view.
//
//   1. Mine candidate grouping patterns (Apriori + coverage dedup).
//   2. For each grouping pattern, mine the top positive and negative
//      treatment patterns (lattice traversal, Algorithm 2) — in parallel
//      across grouping patterns (optimization (c)).
//   3. Select <= k explanation patterns covering >= theta * m groups by
//      LP relaxation + randomized rounding of the Fig. 5 ILP.

#ifndef CAUSUMX_CORE_CAUSUMX_H_
#define CAUSUMX_CORE_CAUSUMX_H_

#include <memory>
#include <string>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator_context.h"
#include "core/explanation.h"
#include "dataset/fd.h"
#include "dataset/group_query.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "mining/grouping_miner.h"
#include "mining/treatment_miner.h"
#include "util/timer.h"

namespace causumx {

/// Worker pool (util/thread_pool.h) lent to phases 2 and 3.
class ThreadPool;

/// Which solver phase 3 uses (the ablation of Section 6.4).
enum class FinalStepSolver { kLpRounding, kGreedy, kExact };

/// Full configuration of a CauSumX run.
struct CauSumXConfig {
  size_t k = 5;          ///< max explanation patterns (size constraint).
  double theta = 0.75;   ///< min fraction of groups covered.
  double apriori_support = 0.1;  ///< tau for grouping-pattern mining.
  GroupingMinerOptions grouping;     ///< phase 1 (Apriori) knobs.
  TreatmentMinerOptions treatment;   ///< phase 2 (lattice walk) knobs.
  EstimatorOptions estimator;        ///< CATE estimation knobs.
  FinalStepSolver solver = FinalStepSolver::kLpRounding;  ///< phase 3.
  size_t rounding_rounds = 64;  ///< randomized-rounding trials (phase 3).
  uint64_t seed = 1234;         ///< seed of the rounding trials.
  /// Workers of the engine a run lent neither engine nor pool builds
  /// (0 = hardware concurrency, 1 = serial); no other run reads it.
  size_t num_threads = 0;
  /// Mine both signs (paper default) or positive-only.
  bool mine_negative = true;
  /// Restrict treatment mining to these attributes (empty = all non-FD
  /// attributes). Used by the sensitive-attributes case study (Fig. 6).
  std::vector<std::string> treatment_attribute_allowlist;
  /// Restrict grouping patterns to these attributes (empty = all
  /// attributes with A_gb -> W). The paper pre-selects these per dataset;
  /// mandatory when the group-by key is unique per tuple, where the FD
  /// test is vacuous.
  std::vector<std::string> grouping_attribute_allowlist;

  /// Seeds grouping.apriori.min_support from apriori_support.
  CauSumXConfig() { grouping.apriori.min_support = apriori_support; }
};

/// Cache counters of one run's shared evaluation engine + estimator
/// context (cumulative when an engine is reused across runs, as in the
/// service).
struct EngineCacheStats {
  EvalEngineStats eval;           ///< predicate bitset and view caches.
  EstimatorCacheStats estimator;  ///< CATE memo.
};

/// Instrumented result (phase timings feed Fig. 14/20).
struct CauSumXResult {
  ExplanationSummary summary;     ///< the selected explanations.
  AggregateView view;             ///< Q(D), the explained view.
  AttributePartition partition;   ///< grouping vs treatment attributes.
  size_t num_grouping_candidates = 0;        ///< phase-1 patterns mined.
  size_t num_candidates_with_treatment = 0;  ///< those with a treatment.
  size_t treatment_patterns_evaluated = 0;   ///< phase-2 lattice nodes.
  PhaseTimer timings;  ///< phases: "grouping", "treatment", "selection".
  EngineCacheStats cache_stats;   ///< caches after the run.
};

/// Output of phases 1 + 2 (mining), reusable across phase-3 parameter
/// changes — see the service's candidate cache
/// (service/explanation_service.h).
struct CandidateMiningResult {
  AggregateView view;            ///< Q(D), the explained view.
  AttributePartition partition;  ///< grouping vs treatment attributes.
  /// One candidate per surviving grouping pattern, with its top positive
  /// and/or negative treatment already attached.
  std::vector<Explanation> candidates;
  size_t num_grouping_candidates = 0;       ///< phase-1 patterns mined.
  size_t treatment_patterns_evaluated = 0;  ///< phase-2 lattice nodes.
  PhaseTimer timings;  ///< phases "grouping" and "treatment".
  EngineCacheStats cache_stats;  ///< caches after the run.
};

/// Phases 1 + 2 of Algorithm 1: mine grouping patterns and their top
/// treatments. Phase-3 parameters (k, theta, solver) are ignored here.
/// Every evaluation goes through an EvalEngine:
///  - `engine` (optional, bound to `table`) shares a predicate-bitset
///    cache across runs (the service, monitors, baseline comparisons).
///    When null, a run-private engine borrows `table` (BorrowTable):
///    with `pool` null too it owns a pool of config.num_threads workers
///    and plans one row shard per worker (util/shard_plan.h), otherwise
///    it is a serial single-shard one. A cache-bypass engine
///    (EvalEngineOptions::cache_enabled = false) is how tests and benches
///    run the uncached oracle.
///  - `estimator_ctx` (optional, bound to the same engine) shares a CATE
///    memo with the caller.
///  - `pool` (optional): the view and phase 2 run on the pool the run
///    is lent, else on the engine's pool (serially when it has none).
///    No run starts a pool of its own beyond the run-private engine's.
CandidateMiningResult MineExplanationCandidates(
    const Table& table, const GroupByAvgQuery& query, const CausalDag& dag,
    const CauSumXConfig& config, std::shared_ptr<EvalEngine> engine = nullptr,
    std::shared_ptr<EstimatorContext> estimator_ctx = nullptr,
    ThreadPool* pool = nullptr);

/// The identity of a mining run over a fixed table and DAG: the query and
/// every CauSumXConfig field phases 1 + 2 read (apriori_support, the
/// grouping, treatment and estimator options, mine_negative and both
/// attribute allowlists). It leaves out k, theta, solver,
/// rounding_rounds, seed and num_threads, which cannot change the mined
/// candidates, and grouping.apriori.min_support, which apriori_support
/// overrides. Equal keys mine identical candidates.
std::string MiningKey(const GroupByAvgQuery& query,
                      const CauSumXConfig& config);

/// Phase 3 of Algorithm 1: select <= k candidates covering >= theta * m
/// groups, maximizing total explainability. `timings` (optional) gains a
/// "selection" phase entry. `pool` (optional) parallelizes the greedy
/// solver's marginal-gain scans (identical selection either way).
ExplanationSummary SelectExplanations(
    const std::vector<Explanation>& candidates, size_t num_groups,
    const CauSumXConfig& config, PhaseTimer* timings = nullptr,
    ThreadPool* pool = nullptr);

/// Phase 3 over mined candidates, assembled into a full result: view,
/// partition, counts and cache stats come from `mined`, and the timings
/// hold the "selection" phase only. `pool` is SelectExplanations'.
CauSumXResult ResultFromCandidates(const CandidateMiningResult& mined,
                                   const CauSumXConfig& config,
                                   ThreadPool* pool = nullptr);

/// Runs CauSumX (Algorithm 1) over the table for the given query and
/// causal DAG: MineExplanationCandidates, then SelectExplanations. Every
/// run, whatever its surface (library, CLI, service, monitor), goes
/// through here. `engine`, `estimator_ctx` and `pool` are those of
/// MineExplanationCandidates; `pool` is passed unchanged to both phases.
CauSumXResult RunCauSumX(const Table& table, const GroupByAvgQuery& query,
                         const CausalDag& dag,
                         const CauSumXConfig& config = {},
                         std::shared_ptr<EvalEngine> engine = nullptr,
                         std::shared_ptr<EstimatorContext> estimator_ctx =
                             nullptr,
                         ThreadPool* pool = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_CORE_CAUSUMX_H_
