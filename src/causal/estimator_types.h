// Option and result types of effect estimation, kept apart from
// EstimatorContext (causal/estimator_context.h) so headers that only
// carry an estimate — explanations, renderers, baselines' configs — do
// not pull in the engine.

#ifndef CAUSUMX_CAUSAL_ESTIMATOR_TYPES_H_
#define CAUSUMX_CAUSAL_ESTIMATOR_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/stats.h"

namespace causumx {

/// How the confounder adjustment is performed.
///
/// kRegressionAdjustment is the paper's estimator (DoWhy linear
/// regression). kIpw is inverse-propensity weighting (Section 7 mentions
/// propensity methods for richer treatment handling): a logistic
/// propensity model over the backdoor set reweights the difference in
/// means; robust to outcome-model misspecification, noisier under weak
/// overlap.
enum class EstimationMethod { kRegressionAdjustment, kIpw };

/// Tuning knobs for effect estimation.
struct EstimatorOptions {
  /// Minimum treated and minimum control units required (overlap, Eq. 4).
  size_t min_group_size = 10;
  /// When the subpopulation exceeds this, estimate on a uniform random
  /// sample of this size (optimization (d), Section 5.2). 0 = never sample.
  size_t sample_cap = 1'000'000;
  /// Seed for the sampling RNG (deterministic across runs).
  uint64_t sample_seed = 17;
  /// Cap on one-hot levels per categorical confounder; rarest levels merge
  /// into the dropped baseline. Keeps designs tractable on wide domains.
  size_t max_onehot_levels = 24;
  /// Adjustment strategy (see EstimationMethod).
  EstimationMethod method = EstimationMethod::kRegressionAdjustment;
  /// IPW only: propensities are clipped into [clip, 1-clip] to bound the
  /// weights (standard practice).
  double propensity_clip = 0.02;
};

/// A CATE estimate.
struct EffectEstimate {
  bool valid = false;       ///< false when overlap/df checks failed.
  double cate = 0.0;        ///< estimated conditional average treatment effect.
  double std_error = 0.0;   ///< standard error of the CATE.
  double p_value = 1.0;     ///< two-sided t-test p-value.
  size_t n_treated = 0;     ///< treated units in the (sampled) population.
  size_t n_control = 0;     ///< control units in the (sampled) population.
  size_t n_used = 0;        ///< rows entering the regression.

  /// True when valid and p_value <= alpha.
  bool Significant(double alpha = 0.05) const {
    return valid && p_value <= alpha;
  }

  /// Two-sided confidence interval at the given level (default 95%):
  /// cate +- z * std_error. Returns {cate, cate} when invalid.
  std::pair<double, double> ConfidenceInterval(double level = 0.95) const {
    if (!valid || std_error <= 0.0 || level <= 0.0 || level >= 1.0) {
      return {cate, cate};
    }
    const double z = NormalQuantile(0.5 + level / 2.0);
    return {cate - z * std_error, cate + z * std_error};
  }
};

}  // namespace causumx

#endif  // CAUSUMX_CAUSAL_ESTIMATOR_TYPES_H_
