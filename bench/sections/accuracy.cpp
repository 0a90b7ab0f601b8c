// Reproduces Fig. 10(a, b): precision and recall of the grouping- and
// treatment-pattern mining heuristics against the exhaustive Brute-Force
// reference, on the synthetic dataset with known ground truth.
//
// Protocol (Section 6.3): precision/recall are computed on *tuple sets* —
// for grouping patterns, the tuples covered by the heuristic's selected
// patterns vs those covered by Brute-Force's; for treatment patterns,
// the treated group per grouping pattern under the heuristic's top
// treatment vs under Brute-Force's.

#include <algorithm>

#include "bench/harness.h"
#include "datagen/synthetic.h"
#include "mining/grouping_miner.h"
#include "mining/treatment_miner.h"

namespace causumx::bench {

namespace {

struct Pr {
  double precision = 0;
  double recall = 0;
};

Pr TupleSetPr(const Bitset& ours, const Bitset& reference) {
  const double both = static_cast<double>((ours & reference).Count());
  auto share = [&](const Bitset& of) {
    return of.Count() == 0 ? 1.0 : both / static_cast<double>(of.Count());
  };
  return {share(ours), share(reference)};
}

}  // namespace

void Accuracy(Section& s) {
  s.Banner("Fig. 10(a)", "grouping-pattern mining precision/recall");
  s.Table("Fig. 10(a)",
          {{"#grouping-attrs", 20}, {"precision", 10}, {"recall", 10}});
  for (size_t attrs : {1, 2, 3, 4, 5}) {
    SyntheticOptions opt;
    opt.num_rows = 1000;  // the paper's n = 1k
    opt.num_grouping_attrs = attrs;
    opt.num_treatment_attrs = 3;
    const GeneratedDataset ds = MakeSyntheticDataset(opt);
    const AggregateView view =
        AggregateView::Evaluate(ds.table, ds.default_query);

    // Heuristic: Apriori-mined grouping patterns.
    GroupingMinerOptions gopt;
    gopt.apriori.min_support = 0.1;
    gopt.include_per_group_patterns = false;
    const auto mined = MineGroupingPatterns(
        ds.table, view, ds.grouping_attribute_hint, gopt);

    // Reference: all equality patterns (Apriori at support 0 over the
    // same attributes is the exhaustive set for this schema).
    GroupingMinerOptions exhaustive = gopt;
    exhaustive.apriori.min_support = 0.0;
    const auto all = MineGroupingPatterns(
        ds.table, view, ds.grouping_attribute_hint, exhaustive);

    Bitset ours(ds.table.NumRows()), reference(ds.table.NumRows());
    for (const auto& p : mined) ours |= p.rows;
    for (const auto& p : all) reference |= p.rows;
    const Pr pr = TupleSetPr(ours, reference);
    s.Row({Fmt("%zu", attrs), Fmt("%.3f", pr.precision),
           Fmt("%.3f", pr.recall)});
  }

  s.Banner("Fig. 10(b)", "treatment-pattern mining precision/recall");
  s.Table("Fig. 10(b)",
          {{"#treatment-attrs", 20}, {"precision", 10}, {"recall", 10}});
  for (size_t tattrs : {2, 3, 4, 5}) {
    SyntheticOptions opt;
    opt.num_rows = 1000;
    opt.num_grouping_attrs = 2;
    opt.num_treatment_attrs = tattrs;
    const GeneratedDataset ds = MakeSyntheticDataset(opt);
    const AggregateView view =
        AggregateView::Evaluate(ds.table, ds.default_query);
    GroupingMinerOptions gopt;
    gopt.apriori.min_support = 0.1;
    gopt.include_per_group_patterns = false;
    const auto grouping = MineGroupingPatterns(
        ds.table, view, ds.grouping_attribute_hint, gopt);

    EstimatorContext estimator(
        std::make_shared<EvalEngine>(BorrowTable(ds.table)), ds.dag, {});
    // The brute force enumerates every atom; the heuristic walks the
    // DAG-pruned atoms, built once for all grouping patterns.
    const auto atoms = GenerateAtomicTreatments(
        *estimator.engine(), ds.treatment_attribute_hint, {});
    const auto causal_atoms = CausalTreatmentAtoms(
        estimator, "O", ds.treatment_attribute_hint, {});

    double precision_sum = 0, recall_sum = 0;
    size_t measured = 0;
    for (const auto& gp : grouping) {
      // Heuristic top treatment (lattice with pruning).
      const auto ours = MineTopTreatment(estimator, gp.rows, "O", causal_atoms,
                                         TreatmentSign::kPositive);
      if (!ours) continue;
      // Brute-force best treatment: exhaustive pairs of atoms.
      Pattern best;
      double best_cate = 0;
      auto consider = [&](const Pattern& p) {
        const EffectEstimate est = estimator.EstimateCate(p, "O", gp.rows);
        if (est.Significant() && est.cate > best_cate) {
          best_cate = est.cate;
          best = p;
        }
      };
      for (size_t i = 0; i < atoms.size(); ++i) {
        consider(Pattern({atoms[i]}));
        for (size_t j = i + 1; j < atoms.size(); ++j) {
          if (atoms[i].attribute == atoms[j].attribute) continue;
          consider(Pattern({atoms[i], atoms[j]}));
        }
      }
      if (best.IsEmpty()) continue;
      const Bitset ours_rows = ours->pattern.EvaluateOn(ds.table, gp.rows);
      const Bitset ref_rows = best.EvaluateOn(ds.table, gp.rows);
      const Pr pr = TupleSetPr(ours_rows, ref_rows);
      precision_sum += pr.precision;
      recall_sum += pr.recall;
      ++measured;
    }
    if (measured == 0) {
      s.Row({Fmt("%zu", tattrs), "-", "-"});
      continue;
    }
    s.Row({Fmt("%zu", tattrs),
           Fmt("%.3f", precision_sum / static_cast<double>(measured)),
           Fmt("%.3f", recall_sum / static_cast<double>(measured))});
  }
  std::printf(
      "\nExpected shape (paper): recall stays high throughout; precision\n"
      "dips as the pattern space grows but remains above ~0.75.\n");
}

}  // namespace causumx::bench
