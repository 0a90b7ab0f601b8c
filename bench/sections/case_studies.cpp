// Reproduces the qualitative case studies: Fig. 2 (SO summary, k=3,
// theta=1), Fig. 6 (SO with sensitive attributes only), Fig. 7
// (Accidents per-region summary), Fig. 18 (German per-purpose summary),
// Fig. 19 (Adult per-occupation-category summary).

#include <cstdio>

#include "bench/harness.h"
#include "core/renderer.h"

namespace causumx::bench {

namespace {

void RunCase(Section& s, const char* figure, const char* description,
             const GeneratedDataset& ds, const CauSumXConfig& config) {
  s.Banner(figure, description);
  const CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  s.Text(figure,
         "query: " + ds.default_query.ToSql(ds.name) + "\n" +
             RenderSummary(result.summary, ds.style) +
             Fmt("(coverage %zu/%zu, constraint %s)\n",
                 result.summary.covered_groups, result.summary.num_groups,
                 result.summary.coverage_satisfied ? "satisfied"
                                                   : "violated"));
  std::printf("(%.2fs total)\n", result.timings.Total());
}

}  // namespace

void CaseStudies(Section& s) {
  {
    const GeneratedDataset so = MakeDatasetByName("SO", s.scale());
    CauSumXConfig config = ConfigFor(so, PaperDefaultConfig());
    config.k = 3;
    config.theta = 1.0;
    RunCase(s, "Fig. 2", "SO causal explanation summary (k=3, theta=1)", so,
            config);

    config.treatment_attribute_allowlist = {"Gender", "Ethnicity", "Age",
                                            "SexualOrientation"};
    RunCase(s, "Fig. 6", "SO summary over sensitive attributes only", so,
            config);
  }

  {
    const GeneratedDataset acc = MakeDatasetByName("Accidents", s.scale());
    CauSumXConfig config = ConfigFor(acc, PaperDefaultConfig());
    config.k = 4;
    config.theta = 0.9;
    config.apriori_support = 0.05;
    RunCase(s, "Fig. 7", "Accidents summary (one insight per region)", acc,
            config);
  }

  {
    const GeneratedDataset german = MakeDatasetByName("German", 1.0);
    const CauSumXConfig config = ConfigFor(german, PaperDefaultConfig());
    RunCase(s, "Fig. 18", "German credit summary (per-purpose insights)",
            german, config);
  }

  {
    const GeneratedDataset adult = MakeDatasetByName("Adult", s.scale());
    CauSumXConfig config = ConfigFor(adult, PaperDefaultConfig());
    config.k = 3;
    config.theta = 0.9;
    RunCase(s, "Fig. 19", "Adult summary (occupation categories)", adult,
            config);
  }
}

}  // namespace causumx::bench
