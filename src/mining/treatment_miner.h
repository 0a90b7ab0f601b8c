// Treatment-pattern mining (Algorithm 2, Section 5.2 of the paper).
//
// For a grouping pattern P_g, traverse the lattice of conjunctive
// treatment patterns top-down: level 1 holds all atomic predicates;
// a level-(d+1) node is materialized only when all of its level-d parents
// carry a CATE of the requested sign (the paper's greedy heuristic for
// the non-monotone CATE). Tracks the best pattern per sign and stops at
// the first level that fails to improve it.
//
// Implemented optimizations (Section 5.2):
//  (a) attribute pruning — only attributes that are causal ancestors of
//      the outcome in the DAG generate predicates (CausalTreatmentAtoms,
//      run once per query; every walk reads the resulting atom list);
//  (b) treatment pruning — near-zero CATEs are dropped and only the top
//      `level_keep_fraction` of each level expands;
//  (c) parallelism — handled by the caller (one task per grouping
//      pattern; see core/causumx.cpp);
//  (d) sampling — handled inside EstimatorContext (sample_cap).

#ifndef CAUSUMX_MINING_TREATMENT_MINER_H_
#define CAUSUMX_MINING_TREATMENT_MINER_H_

#include <optional>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "dataset/pattern.h"
#include "util/bitset.h"

namespace causumx {

/// Direction of the effect being mined.
enum class TreatmentSign { kPositive, kNegative };

/// A treatment pattern with its estimated effect.
struct ScoredTreatment {
  Pattern pattern;         ///< the conjunctive treatment pattern.
  EffectEstimate effect;   ///< its CATE over the mined subpopulation.
};

/// Knobs of the lattice walk (Algorithm 2 and optimizations (a), (b)).
struct TreatmentMinerOptions {
  /// Max predicates per treatment pattern (lattice depth).
  size_t max_depth = 3;
  /// CATEs with |value| below this fraction of the outcome's std deviation
  /// are "near-zero" and pruned (optimization (b)).
  double near_zero_fraction = 0.05;
  /// Fraction of each level (by |CATE|) allowed to expand (optimization
  /// (b): the paper keeps the top 50%).
  double level_keep_fraction = 0.5;
  /// Hard cap on patterns evaluated per level (safety valve on wide
  /// schemas; generous enough to be inactive in the paper's settings).
  size_t max_level_width = 4096;
  /// Max distinct values per categorical attribute turned into equality
  /// predicates; larger domains are skipped (they seldom yield
  /// high-coverage treatments and explode the lattice).
  size_t max_values_per_attribute = 40;
  /// Numeric attributes are discretized into this many quantile thresholds
  /// generating  A < q  and  A >= q  predicates.
  size_t numeric_bins = 4;
  /// Two-sided significance level a treatment must meet to be reported.
  double alpha = 0.05;
  /// Treatments must cover at least this fraction of the subpopulation to
  /// be meaningful (overlap guard beyond the estimator's absolute floor).
  double min_treated_fraction = 0.01;
};

/// Generates all atomic treatment predicates for the given attributes:
/// equality items for categorical and small-domain numeric columns,
/// quantile thresholds (A < q, A >= q) for the other numeric ones. Served
/// from the engine's cached distinct-value and numeric views. The list
/// depends on the table and the options only, never on a subpopulation.
std::vector<SimplePredicate> GenerateAtomicTreatments(
    EvalEngine& engine, const std::vector<std::string>& attributes,
    const TreatmentMinerOptions& options);

/// The level-1 atoms of every lattice walk for one query: applies
/// optimization (a) to `treatment_attributes` (attributes in the DAG that
/// are not causal ancestors of `outcome` are pruned; attributes missing
/// from the DAG are kept) and calls GenerateAtomicTreatments on the rest,
/// in the given attribute order. Build it once per query and pass it to
/// every MineTopTreatment / MineTopKTreatments call of that query.
std::vector<SimplePredicate> CausalTreatmentAtoms(
    EstimatorContext& estimator, const std::string& outcome,
    const std::vector<std::string>& treatment_attributes,
    const TreatmentMinerOptions& options);

/// Statistics from a mining run (for the accuracy experiments, Fig. 10).
struct TreatmentMiningStats {
  /// Lattice nodes evaluated, the overlap-rejected ones included.
  size_t patterns_evaluated = 0;
  /// Deepest lattice level the walk reached.
  size_t levels_explored = 0;
};

/// Mines the best treatment pattern of the requested sign for the
/// subpopulation (Algorithm 2), starting from `atoms` (the query's
/// CausalTreatmentAtoms). Returns nullopt when nothing valid and
/// significant exists; throws std::out_of_range on an unknown `outcome`.
/// `stats` (optional) adds this walk's evaluations to
/// `patterns_evaluated` and records its depth in `levels_explored`.
std::optional<ScoredTreatment> MineTopTreatment(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
    TreatmentSign sign, const TreatmentMinerOptions& options = {},
    TreatmentMiningStats* stats = nullptr);

/// Top-k treatment patterns of the requested sign, ranked by |CATE|
/// (the paper's UI lets analysts request several positive/negative
/// treatments per grouping pattern), walking the lattice over `atoms`
/// (the query's CausalTreatmentAtoms). Patterns whose treated-row sets
/// coincide with a stronger pattern are dropped. Returns at most k
/// entries, possibly fewer, in descending effect magnitude.
std::vector<ScoredTreatment> MineTopKTreatments(
    EstimatorContext& estimator, const Bitset& subpopulation,
    const std::string& outcome, const std::vector<SimplePredicate>& atoms,
    TreatmentSign sign, size_t k, const TreatmentMinerOptions& options = {});

}  // namespace causumx

#endif  // CAUSUMX_MINING_TREATMENT_MINER_H_
