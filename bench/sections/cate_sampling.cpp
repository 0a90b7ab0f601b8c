// Reproduces Fig. 15/22: the effect of the CATE-estimation sample size
// (optimization (d), Section 5.2) on (a) estimated CATE values of random
// treatments and (b) Kendall's tau agreement between the top-20 treatment
// ranking under sampling vs the full-data ranking (Accidents dataset).

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/harness.h"
#include "mining/treatment_miner.h"
#include "util/stats.h"

namespace causumx::bench {

void CateSampling(Section& s) {
  const GeneratedDataset ds = MakeDatasetByName("Accidents", s.scale());
  const AttributePartition part = PartitionAttributes(
      ds.table, ds.default_query.group_by, ds.default_query.avg_attribute);

  TreatmentMinerOptions topt;
  EvalEngine atom_engine(BorrowTable(ds.table));
  const auto atoms =
      GenerateAtomicTreatments(atom_engine, part.treatment_attributes, topt);
  // 20 treatments for the ranking, 5 highlighted, as in the paper.
  std::vector<Pattern> treatments;
  for (size_t i = 0; i < atoms.size() && treatments.size() < 20; ++i) {
    treatments.push_back(Pattern({atoms[i]}));
  }

  Bitset all(ds.table.NumRows());
  all.SetAll();

  // Full-data reference CATEs.
  EstimatorOptions full_opt;
  full_opt.sample_cap = 0;
  EstimatorContext full(
      std::make_shared<EvalEngine>(BorrowTable(ds.table)), ds.dag, full_opt);
  std::vector<double> reference;
  reference.reserve(treatments.size());
  for (const auto& tr : treatments) {
    reference.push_back(
        full.EstimateCate(tr, ds.default_query.avg_attribute, all).cate);
  }

  const std::vector<size_t> sample_sizes = {2'000, 5'000, 10'000, 25'000,
                                            50'000, 100'000};

  s.Banner("Fig. 15/22(a)", "CATE estimates vs sample size");
  std::vector<Col> cols = {{"samples", 10}};
  for (size_t t = 0; t < 5 && t < treatments.size(); ++t) {
    cols.push_back(
        {Fmt("T%zu(%.12s)", t + 1, treatments[t].ToString().c_str()), 19});
  }
  cols.push_back({"max-rel-error", 15});
  s.Table("Fig. 15/22(a)", cols);
  std::vector<std::pair<size_t, double>> taus;  // (b), from the same fits
  for (size_t n : sample_sizes) {
    if (n > ds.table.NumRows()) continue;
    EstimatorOptions opt;
    opt.sample_cap = n;
    EstimatorContext sampled(
        std::make_shared<EvalEngine>(BorrowTable(ds.table)), ds.dag, opt);
    std::vector<std::string> row = {Fmt("%zu", n)};
    double max_rel = 0;
    std::vector<double> estimates;
    for (size_t t = 0; t < treatments.size(); ++t) {
      const double est =
          sampled
              .EstimateCate(treatments[t], ds.default_query.avg_attribute,
                            all)
              .cate;
      estimates.push_back(est);
      // Relative error over treatments with a meaningful reference effect
      // (near-zero CATEs make the ratio degenerate; the paper's ~5% claim
      // concerns the reported, non-trivial effects).
      if (std::fabs(reference[t]) > 0.05) {
        max_rel = std::max(
            max_rel, std::fabs(est - reference[t]) /
                         std::fabs(reference[t]));
      }
      if (t < 5) row.push_back(Fmt("%.4f", est));
    }
    row.push_back(Fmt("%.1f%%", 100 * max_rel));
    s.Row(row);
    taus.emplace_back(n, KendallTau(estimates, reference));
  }

  s.Banner("Fig. 15/22(b)", "Kendall tau of top-20 ranking vs sample");
  s.Table("Fig. 15/22(b)", {{"samples", 10}, {"kendall-tau", 12}});
  for (const auto& [n, tau] : taus) s.Row({Fmt("%zu", n), Fmt("%.3f", tau)});
  std::printf(
      "\nExpected shape (paper): error shrinks below ~5%% and tau\n"
      "stabilizes around 0.95 as the sample approaches ~1M tuples.\n");
}

}  // namespace causumx::bench
