// Reproduces Fig. 8(a-c): runtime, overall explainability, and coverage
// of CauSumX vs Greedy-Last-Step vs Brute-Force vs Brute-Force-LP across
// the datasets. As in the paper, the Brute-Force variants only finish on
// German (here: a CATE-evaluation budget plays the role of the paper's
// 3-hour cutoff) and are reported as "cutoff" elsewhere.

#include <string>
#include <vector>

#include "baselines/brute_force.h"
#include "bench/harness.h"
#include "util/timer.h"

namespace causumx::bench {

void Variants(Section& s) {
  s.Banner("Fig. 8(a-c)", "runtime / explainability / coverage by variant");
  s.Table("Fig. 8(a-c)",
          {{"dataset", -12}, {"variant", -18}, {"runtime", 10, false},
           {"explainability", 16}, {"coverage", 11}});
  auto row = [&](const std::string& dataset, const char* variant,
                 double seconds, const ExplanationSummary& summary) {
    s.Row({dataset, variant, Fmt("%.2fs", seconds),
           Fmt("%.3f", summary.total_explainability),
           Fmt("%.2f%%", 100.0 * summary.CoverageFraction())});
  };

  const std::vector<std::string> datasets = {"German", "Adult", "SO",
                                             "IMPUS-CPS", "Accidents"};
  for (const auto& name : datasets) {
    const GeneratedDataset ds =
        MakeDatasetByName(name, name == "German" ? 1.0 : s.scale());
    const CauSumXConfig base = ConfigFor(ds, PaperDefaultConfig());

    // CauSumX (LP rounding last step).
    {
      Timer timer;
      const CauSumXResult r =
          RunCauSumX(ds.table, ds.default_query, ds.dag, base);
      row(name, "CauSumX", timer.Seconds(), r.summary);
    }
    // Greedy-Last-Step.
    {
      CauSumXConfig config = base;
      config.solver = FinalStepSolver::kGreedy;
      Timer timer;
      const CauSumXResult r =
          RunCauSumX(ds.table, ds.default_query, ds.dag, config);
      row(name, "Greedy-Last-Step", timer.Seconds(), r.summary);
    }
    // Brute-Force variants: only feasible on German (paper's finding);
    // elsewhere the evaluation budget models the paper's time cutoff.
    const bool small = ds.table.NumRows() <= 2000;
    for (const bool lp : {false, true}) {
      BruteForceConfig bf;
      bf.k = base.k;
      bf.theta = base.theta;
      bf.estimator = base.estimator;
      bf.treatment = base.treatment;
      bf.use_lp_rounding = lp;
      bf.max_cate_evaluations = small ? 0 : 200;
      Timer timer;
      const BruteForceResult r =
          RunBruteForce(ds.table, ds.default_query, ds.dag, bf);
      const char* variant = lp ? "Brute-Force-LP" : "Brute-Force";
      if (r.hit_evaluation_cap) {
        s.Row({name, variant, "cutoff", "-", "-"});
      } else {
        row(name, variant, timer.Seconds(), r.summary);
      }
    }
  }
  std::printf(
      "\nExpected shape (paper): CauSumX and Greedy-Last-Step run orders of\n"
      "magnitude faster than Brute-Force; Brute-Force finishes only on\n"
      "German with slightly higher explainability; CauSumX matches Greedy\n"
      "on explainability while satisfying coverage more reliably.\n");
}

}  // namespace causumx::bench
