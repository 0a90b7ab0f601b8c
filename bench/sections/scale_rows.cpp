// Reproduces Fig. 11: CauSumX runtime vs dataset size (random tuple
// subsampling of Adult and IMPUS-CPS). Expected shape: near-linear growth
// on Adult (full-data CATE computation); flatter on CPS once the CATE
// sampling cap engages.

#include "bench/harness.h"
#include "util/rng.h"
#include "util/timer.h"

namespace causumx::bench {

namespace {

Table Subsample(const Table& table, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> idx = rng.SampleIndices(table.NumRows(), rows);
  std::sort(idx.begin(), idx.end());
  return table.SelectRows(idx);
}

}  // namespace

void ScaleRows(Section& s) {
  s.Banner("Fig. 11", "runtime vs dataset size (row subsampling)");

  for (const std::string name : {"Adult", "IMPUS-CPS"}) {
    const GeneratedDataset ds = MakeDatasetByName(name, s.scale());
    CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
    // The paper caps CATE estimation samples on the large datasets.
    config.estimator.sample_cap = 50'000;
    std::printf("\n%s (base rows: %zu, CATE sample cap %zu)\n", name.c_str(),
                ds.table.NumRows(), config.estimator.sample_cap);
    s.Table("Fig. 11 " + name,
            {{"rows", 10}, {"runtime", 12, false}, {"explain", 10}});
    for (double f : {0.25, 0.5, 0.75, 1.0}) {
      const size_t rows =
          static_cast<size_t>(f * static_cast<double>(ds.table.NumRows()));
      const Table sub = Subsample(ds.table, rows, 7);
      Timer timer;
      const CauSumXResult r =
          RunCauSumX(sub, ds.default_query, ds.dag, config);
      s.Row({Fmt("%zu", rows), Fmt("%.2fs", timer.Seconds()),
             Fmt("%.2f", r.summary.total_explainability)});
    }
  }
}

}  // namespace causumx::bench
