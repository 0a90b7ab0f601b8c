// Reproduces Fig. 9(a, b): explainability and coverage of CauSumX vs
// Greedy-Last-Step as the solution size k grows (SO dataset), plus the
// Section 6.5 observation that runtime is insensitive to k.

#include "bench/harness.h"
#include "util/timer.h"

namespace causumx::bench {

void VaryK(Section& s) {
  const GeneratedDataset ds = MakeDatasetByName("SO", s.scale());
  const CauSumXConfig base = ConfigFor(ds, PaperDefaultConfig());

  s.Banner("Fig. 9(a,b)",
           "explainability & coverage vs k (SO), CauSumX vs Greedy");
  s.Table("Fig. 9(a,b)",
          {{"k", 4}, {"CauSumX-explain", 20}, {"CauSumX-coverage", 18},
           {"Greedy-explain", 20}, {"Greedy-coverage", 18}});
  for (size_t k = 1; k <= 8; ++k) {
    CauSumXConfig lp = base;
    lp.k = k;
    CauSumXConfig greedy = base;
    greedy.k = k;
    greedy.solver = FinalStepSolver::kGreedy;

    const CauSumXResult rl = RunCauSumX(ds.table, ds.default_query, ds.dag, lp);
    const CauSumXResult rg =
        RunCauSumX(ds.table, ds.default_query, ds.dag, greedy);
    s.Row({Fmt("%zu", k), Fmt("%.3f", rl.summary.total_explainability),
           Fmt("%.1f%%", 100 * rl.summary.CoverageFraction()),
           Fmt("%.3f", rg.summary.total_explainability),
           Fmt("%.1f%%", 100 * rg.summary.CoverageFraction())});
  }
  std::printf("(coverage constraint theta = %.0f%%, dashed line in paper)\n",
              100 * base.theta);

  s.Banner("Sec. 6.5 (solution size)", "runtime vs k is ~flat");
  s.Table("Sec. 6.5", {{"k", 4}, {"runtime", 12, false}});
  for (size_t k : {1, 3, 5, 7}) {
    CauSumXConfig config = base;
    config.k = k;
    Timer timer;
    RunCauSumX(ds.table, ds.default_query, ds.dag, config);
    s.Row({Fmt("%zu", k), Fmt("%.2fs", timer.Seconds())});
  }
}

}  // namespace causumx::bench
