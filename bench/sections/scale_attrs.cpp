// Reproduces Fig. 12: CauSumX runtime vs the number of attributes
// (random attribute exclusion on SO and Accidents). Expected shape:
// roughly linear growth for CauSumX thanks to the Section 5.2 pruning —
// versus the exponential growth Brute-Force would exhibit.

#include <algorithm>

#include "bench/harness.h"
#include "util/rng.h"
#include "util/timer.h"

namespace causumx::bench {

namespace {

// Keeps the query's attributes plus a random subset of the rest.
Table WithAttributeBudget(const GeneratedDataset& ds, size_t num_attrs,
                          uint64_t seed) {
  std::vector<std::string> required = ds.default_query.group_by;
  required.push_back(ds.default_query.avg_attribute);
  std::vector<std::string> optional;
  for (const auto& name : ds.table.ColumnNames()) {
    if (std::find(required.begin(), required.end(), name) ==
        required.end()) {
      optional.push_back(name);
    }
  }
  Rng rng(seed);
  rng.Shuffle(&optional);
  std::vector<std::string> keep = required;
  for (size_t i = 0; i < optional.size() && keep.size() < num_attrs; ++i) {
    keep.push_back(optional[i]);
  }
  return ds.table.SelectColumns(keep);
}

}  // namespace

void ScaleAttrs(Section& s) {
  s.Banner("Fig. 12", "runtime vs number of attributes");

  const char* datasets[] = {"SO", "Accidents"};
  for (const char* name : datasets) {
    const GeneratedDataset ds = MakeDatasetByName(name, s.scale());
    const CauSumXConfig config =
ConfigFor(ds, PaperDefaultConfig());
    std::printf("\n%s (%zu rows)\n", name, ds.table.NumRows());
    s.Table(std::string("Fig. 12 ") + name,
            {{"attrs", 10}, {"runtime", 12, false}, {"CATEs-evaluated", 14}});
    for (size_t attrs :
         {size_t{6}, size_t{10}, size_t{14}, size_t{18},
          ds.table.NumColumns()}) {
      if (attrs > ds.table.NumColumns()) continue;
      const Table sub = WithAttributeBudget(ds, attrs, 11);
      Timer timer;
      const CauSumXResult r =
          RunCauSumX(sub, ds.default_query, ds.dag, config);
      s.Row({Fmt("%zu", sub.NumColumns()), Fmt("%.2fs", timer.Seconds()),
             Fmt("%zu", r.treatment_patterns_evaluated)});
    }
  }
}

}  // namespace causumx::bench
