// Natural-language rendering of explanation summaries.
//
// The paper's prototype pre-generated text templates (via ChatGPT) that
// turn predicates into readable sentences (Fig. 2/6/7/18/19). We ship the
// equivalent as deterministic template tables: per-dataset phrase hooks
// plus a generic fallback that verbalizes any predicate.

#ifndef CAUSUMX_CORE_RENDERER_H_
#define CAUSUMX_CORE_RENDERER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/explanation.h"
#include "mining/treatment_miner.h"

namespace causumx {

/// Phrase customization for a dataset/domain.
struct RenderStyle {
  /// Noun for the population, e.g. "individuals", "accidents", "loans".
  std::string subject_noun = "individuals";
  /// Noun phrase for the outcome, e.g. "annual income", "severity".
  std::string outcome_noun = "the outcome";
  /// Noun for groups, e.g. "countries", "cities", "occupations".
  std::string group_noun = "groups";
  /// Optional phrase overrides for specific predicates. Key is the
  /// predicate's ToString() (e.g. "Age < 35"); value the phrase to use
  /// (e.g. "being under 35").
  std::map<std::string, std::string> predicate_phrases;
};

/// Verbalizes one predicate using the style's overrides or the generic
/// fallback ("Age < 35" -> "Age below 35").
std::string RenderPredicate(const SimplePredicate& pred,
                            const RenderStyle& style);

/// Verbalizes a conjunctive pattern ("X and Y").
std::string RenderPattern(const Pattern& pattern, const RenderStyle& style);

/// Renders one explanation as the paper's bullet style:
///   "For <grouping>, the most substantial effect on high <outcome>
///    (effect size of E, p < P) is observed for <positive>. Conversely,
///    <negative> has the greatest adverse impact (effect size: -E,
///    p < P)."
std::string RenderExplanation(const Explanation& exp,
                              const RenderStyle& style);

/// Renders the entire summary as a bulleted block (Fig. 2 style).
std::string RenderSummary(const ExplanationSummary& summary,
                          const RenderStyle& style);

/// "p < 1e-3"-style formatting used in the paper's figures.
std::string RenderPValue(double p);

/// Renders one effect with its 95% confidence interval:
/// "36K [31K, 41K], p < 1e-3".
std::string RenderEffectWithCi(const EffectEstimate& effect);

/// Renders a ranked treatment list (the top-k drill-down of
/// ExplanationService::TopTreatments) as numbered lines.
std::string RenderTreatmentList(const std::vector<ScoredTreatment>& list,
                                const RenderStyle& style);

}  // namespace causumx

#endif  // CAUSUMX_CORE_RENDERER_H_
