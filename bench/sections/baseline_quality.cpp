// Reproduces the Section 6.2 quality comparison (Q1) in machine-readable
// form: CauSumX vs IDS, FRL, Explanation-Table(-G), and the
// XInsight-style pairwise protocol on the SO replica. The paper's claims
// to check: IDS/FRL/Explanation-Table surface correlational rules that
// ignore group structure; XInsight's all-pairs output explodes in size;
// CauSumX returns a small causal summary with per-group variation.
// Each method's runtime prints on its own line, outside the recorded
// text.

#include "baselines/explanation_table.h"
#include "baselines/frl.h"
#include "baselines/ids.h"
#include "baselines/xinsight.h"
#include "bench/harness.h"
#include "core/renderer.h"
#include "util/timer.h"

namespace causumx::bench {

void BaselineQuality(Section& s) {
  const GeneratedDataset ds = MakeDatasetByName("SO", s.scale());
  const AggregateView view =
      AggregateView::Evaluate(ds.table, ds.default_query);

  s.Banner("Sec. 6.2 (Q1)", "explanation quality vs baselines (SO)");

  {
    CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
    config.k = 3;
    config.theta = 1.0;
    Timer timer;
    const CauSumXResult r =
        RunCauSumX(ds.table, ds.default_query, ds.dag, config);
    std::printf("\n[CauSumX] %.2fs\n", timer.Seconds());
    s.Text("CauSumX", Fmt("%zu insights, covers %zu/%zu groups\n",
                          r.summary.explanations.size(),
                          r.summary.covered_groups, r.summary.num_groups) +
                          RenderSummary(r.summary, ds.style));
  }

  {
    Timer timer;
    IdsConfig config;
    config.max_rules = 5;
    const IdsResult r = RunIds(ds.table, "Salary", config);
    std::printf("\n[IDS] %.2fs\n", timer.Seconds());
    std::string text = Fmt("%zu rules, accuracy %.2f — one global rule set, "
                           "no group structure:\n",
                           r.rules.size(), r.accuracy);
    for (const auto& rule : r.rules) {
      text += Fmt("  IF %s THEN %s (conf %.2f, n=%zu)\n",
                  rule.pattern.ToString().c_str(),
                  rule.predicted_class ? "high salary" : "low salary",
                  rule.confidence, rule.support);
    }
    s.Text("IDS", text);
  }

  {
    Timer timer;
    FrlConfig config;
    config.max_rules = 5;
    const FrlResult r = RunFrl(ds.table, "Salary", config);
    std::printf("\n[FRL] %.2fs\n", timer.Seconds());
    std::string text =
        Fmt("%zu rules (falling probabilities):\n", r.rules.size());
    for (const auto& rule : r.rules) {
      text += Fmt("  IF %s THEN P(high)=%.2f (n=%zu)\n",
                  rule.pattern.ToString().c_str(), rule.probability,
                  rule.support);
    }
    s.Text("FRL", text + Fmt("  ELSE P(high)=%.2f\n", r.default_probability));
  }

  {
    Timer timer;
    ExplanationTableConfig config;
    config.max_patterns = 5;
    const ExplanationTableResult r =
        RunExplanationTable(ds.table, "Salary", config);
    std::printf("\n[Expl-Table] %.2fs\n", timer.Seconds());
    std::string text =
        Fmt("%zu patterns by information gain:\n", r.entries.size());
    for (const auto& e : r.entries) {
      text += Fmt("  %-48.48s rate=%.2f gain=%.1f n=%zu\n",
                  e.pattern.ToString().c_str(), e.positive_rate, e.gain,
                  e.support);
    }
    s.Text("Expl-Table", text);
  }

  {
    Timer timer;
    ExplanationTableConfig config;
    config.max_patterns = 4;
    const auto per_group =
        RunExplanationTableG(ds.table, view, "Salary", config);
    size_t total_patterns = 0;
    for (const auto& [_, r] : per_group) total_patterns += r.entries.size();
    std::printf("\n[Expl-Table-G] %.2fs\n", timer.Seconds());
    s.Text("Expl-Table-G",
           Fmt("%zu groups x ~%zu patterns = %zu rows — per-group but still "
               "correlational\n",
               per_group.size(),
               per_group.empty() ? 0 : per_group[0].second.entries.size(),
               total_patterns));
  }

  {
    Timer timer;
    const AttributePartition part = PartitionAttributes(
        ds.table, ds.default_query.group_by,
        ds.default_query.avg_attribute);
    XInsightConfig config;
    config.max_pairs = 40;  // the full 190 pairs exceed any sane budget
    const XInsightResult r = RunXInsight(ds.table, view, ds.dag,
                                         part.treatment_attributes, config);
    std::printf("\n[XInsight-style] %.2fs\n", timer.Seconds());
    std::string text =
        Fmt("%zu/%zu pairs processed%s, %zu pairwise explanations, output "
            "~%zu KB\n",
            r.pairs_processed, r.pairs_total, r.truncated ? " (cutoff)" : "",
            r.explanations.size(), r.output_bytes / 1024);
    for (size_t i = 0; i < 3 && i < r.explanations.size(); ++i) {
      const auto& e = r.explanations[i];
      text += Fmt("  %s vs %s: %s (CATE %.0f vs %.0f)\n", e.group_a.c_str(),
                  e.group_b.c_str(), e.treatment.ToString().c_str(), e.cate_a,
                  e.cate_b);
    }
    s.Text("XInsight-style", text);
  }
}

}  // namespace causumx::bench
