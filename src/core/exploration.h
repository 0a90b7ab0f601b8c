// Interactive exploration sessions.
//
// The paper's closing note — "The user can continue the exploration by
// varying parameters in CauSumX" — needs the expensive phases (grouping
// and treatment mining, >95% of the runtime per Fig. 14) to be cached
// while k / theta / the solver vary. ExplorationSession mines once and
// re-runs only the selection LP per query; it also exposes the paper's
// UI drill-down of top-k positive/negative treatments per grouping
// pattern.

#ifndef CAUSUMX_CORE_EXPLORATION_H_
#define CAUSUMX_CORE_EXPLORATION_H_

#include <memory>
#include <vector>

#include "core/causumx.h"
#include "engine/eval_engine.h"
#include "mining/treatment_miner.h"

namespace causumx {

/// A mined-once, query-many session over one (table, query, DAG) triple.
///
/// The session shares ownership of the table, so it stays valid no matter
/// what the caller does with their handle. Not thread-safe for concurrent
/// Solve calls with interleaved mining (mining happens once, lazily, on
/// first use).
class ExplorationSession {
 public:
  /// `config` supplies the mining parameters (support threshold,
  /// treatment options, estimator options, attribute allowlists); its
  /// k / theta / solver act only as defaults for Solve().
  ///
  /// `engine` / `context` (optional) let the session borrow warm caches —
  /// typically from an ExplanationService table entry — instead of
  /// constructing its own; both must be bound to `table` (and `context`
  /// to `engine`). Without `engine`, the session builds MakeRunEngine's
  /// and mines on that engine's pool. `mined` (optional) is the result of
  /// mining this query and config on `table`, shared with its owner (the
  /// service's candidate cache); the session then never mines.
  ExplorationSession(
      std::shared_ptr<const Table> table, GroupByAvgQuery query,
      CausalDag dag, CauSumXConfig config = {},
      std::shared_ptr<EvalEngine> engine = nullptr,
      std::shared_ptr<EstimatorContext> context = nullptr,
      std::shared_ptr<const CandidateMiningResult> mined = nullptr);

  /// Convenience binding to a caller-owned table through BorrowTable
  /// (no copy; the caller guarantees the table outlives the session).
  ExplorationSession(const Table& table, GroupByAvgQuery query,
                     CausalDag dag, CauSumXConfig config = {});

  /// Deleted: a temporary table would be destroyed before the first
  /// Solve. Move the table into a shared_ptr and use that overload.
  ExplorationSession(Table&& table, GroupByAvgQuery query, CausalDag dag,
                     CauSumXConfig config = {}) = delete;

  /// Re-solves the selection problem for new size / coverage parameters.
  /// Mining runs on the first call and is reused afterwards.
  ExplanationSummary Solve(size_t k, double theta,
                           FinalStepSolver solver =
                               FinalStepSolver::kLpRounding);

  /// Solve with the session's default configuration.
  ExplanationSummary Solve();

  /// Drill-down: the top-k treatments of a sign for the subpopulation
  /// selected by `grouping_pattern` (need not be a mined candidate).
  std::vector<ScoredTreatment> TopTreatments(const Pattern& grouping_pattern,
                                             TreatmentSign sign, size_t k);

  /// The evaluated view (mines on first use).
  const AggregateView& View();

  /// All mined candidate explanations (mines on first use).
  const std::vector<Explanation>& Candidates();

  /// Mining statistics; valid after the first Solve/View/Candidates call.
  const CandidateMiningResult& MiningResult();

  /// The session's shared evaluation engine: one predicate-bitset cache
  /// and one CATE memo serve mining, every re-Solve, and every
  /// TopTreatments drill-down.
  const std::shared_ptr<EvalEngine>& engine() const { return engine_; }

  /// Cumulative cache counters of the session (mining + drill-downs).
  EngineCacheStats CacheStats() const;

 private:
  void EnsureMined();

  std::shared_ptr<const Table> table_;
  GroupByAvgQuery query_;
  CausalDag dag_;
  CauSumXConfig config_;
  std::shared_ptr<EvalEngine> engine_;
  std::shared_ptr<EstimatorContext> estimator_;  // bound to engine_
  ThreadPool* mining_pool_;  // engine_'s pool if the session built engine_
  std::shared_ptr<const CandidateMiningResult> mined_;
};

}  // namespace causumx

#endif  // CAUSUMX_CORE_EXPLORATION_H_
