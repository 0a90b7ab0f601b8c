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

#include "baselines/brute_force.h"
#include "bench/bench_util.h"
#include "datagen/synthetic.h"
#include "mining/grouping_miner.h"
#include "mining/treatment_miner.h"

using namespace causumx;

namespace {

struct Pr {
  double precision = 0;
  double recall = 0;
};

Pr TupleSetPr(const Bitset& ours, const Bitset& reference) {
  Pr pr;
  const Bitset both = ours & reference;
  pr.precision = ours.Count() == 0
                     ? 1.0
                     : static_cast<double>(both.Count()) /
                           static_cast<double>(ours.Count());
  pr.recall = reference.Count() == 0
                  ? 1.0
                  : static_cast<double>(both.Count()) /
                        static_cast<double>(reference.Count());
  return pr;
}

}  // namespace

int main() {
  bench::Banner("Fig. 10(a)", "grouping-pattern mining precision/recall");
  std::printf("%20s %10s %10s\n", "#grouping-attrs", "precision", "recall");
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
    std::printf("%20zu %10.3f %10.3f\n", attrs, pr.precision, pr.recall);
  }

  bench::Banner("Fig. 10(b)", "treatment-pattern mining precision/recall");
  std::printf("%20s %10s %10s\n", "#treatment-attrs", "precision", "recall");
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
      std::printf("%20zu %10s %10s\n", tattrs, "-", "-");
      continue;
    }
    std::printf("%20zu %10.3f %10.3f\n", tattrs,
                precision_sum / static_cast<double>(measured),
                recall_sum / static_cast<double>(measured));
  }
  std::printf(
      "\nExpected shape (paper): recall stays high throughout; precision\n"
      "dips as the pattern space grows but remains above ~0.75.\n");
  return 0;
}
