// Reproduces Fig. 13: CauSumX runtime vs the number of candidate
// treatment patterns, controlled by the numeric discretization bin count
// (more bins => more atomic predicates => larger lattice). Expected
// shape: roughly linear growth for all variants.

#include "bench/harness.h"
#include "mining/treatment_miner.h"
#include "util/timer.h"

namespace causumx::bench {

void ScaleTreatments(Section& s) {
  s.Banner("Fig. 13", "runtime vs number of treatment patterns");

  const char* datasets[] = {"Adult", "IMPUS-CPS"};
  for (const char* name : datasets) {
    const GeneratedDataset ds = MakeDatasetByName(name, s.scale());
    std::printf("\n%s (%zu rows)\n", name, ds.table.NumRows());
    s.Table(std::string("Fig. 13 ") + name,
        {{"numeric-bins", 14}, {"atomic-atoms", 14}, {"runtime", 12, false}});
    for (size_t bins : {2, 4, 8, 12}) {
      CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
      config.treatment.numeric_bins = bins;
      config.estimator.sample_cap = 50'000;

      // Count the atoms this setting induces (over all non-FD attrs).
      const AttributePartition part = PartitionAttributes(
          ds.table, ds.default_query.group_by,
          ds.default_query.avg_attribute);
      EvalEngine engine(BorrowTable(ds.table));
      const auto atoms = GenerateAtomicTreatments(
          engine, part.treatment_attributes, config.treatment);

      Timer timer;
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);
      s.Row({Fmt("%zu", bins), Fmt("%zu", atoms.size()),
             Fmt("%.2fs", timer.Seconds())});
    }
  }
}

}  // namespace causumx::bench
