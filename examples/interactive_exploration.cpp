// Interactive exploration: the paper ends Example 1.2 with "the user can
// continue the exploration by varying parameters in CauSumX". This
// example shows the intended workflow through an ExplanationService —
// register the table, explain once (mining), then sweep k/theta
// instantly (the service keeps the mined candidates, so only the
// selection LP re-runs), drill into one group's top treatments, and
// export JSON for a UI.

#include <cstdio>
#include <iostream>

#include "core/json_export.h"
#include "core/renderer.h"
#include "datagen/stackoverflow.h"
#include "service/explanation_service.h"
#include "util/timer.h"

int main() {
  using namespace causumx;

  StackOverflowOptions opt;
  opt.num_rows = 10000;
  GeneratedDataset ds = MakeStackOverflowDataset(opt);

  CauSumXConfig config;
  config.k = 3;
  config.theta = 1.0;

  ExplanationService service;
  service.RegisterTable("so", std::move(ds.table));
  auto solve = [&](size_t k, double theta) {
    CauSumXConfig c = config;
    c.k = k;
    c.theta = theta;
    return service.Explain("so", ds.default_query, ds.dag, c).summary;
  };

  Timer timer;
  const ExplanationSummary first = solve(config.k, config.theta);
  std::printf("first solve (mining + selection): %.2fs\n\n",
              timer.Seconds());
  std::cout << RenderSummary(first, ds.style);

  // Vary parameters — only the selection LP re-runs.
  timer.Reset();
  std::printf("\nparameter sweep (selection only):\n");
  std::printf("%4s %7s %16s %10s\n", "k", "theta", "explainability",
              "coverage");
  for (size_t k : {1, 2, 3, 5}) {
    for (double theta : {0.5, 1.0}) {
      const ExplanationSummary s = solve(k, theta);
      std::printf("%4zu %7.2f %16.0f %9.0f%%\n", k, theta,
                  s.total_explainability, 100 * s.CoverageFraction());
    }
  }
  std::printf("sweep time: %.3fs (%llu mining run)\n", timer.Seconds(),
              (unsigned long long)service.Stats().candidate_misses);

  // Drill into one grouping pattern: top-3 positive treatments for
  // European countries (the paper's UI feature).
  const Pattern europe(
      {SimplePredicate("Continent", CompareOp::kEq, Value("Europe"))});
  std::printf("\ntop-3 positive treatments for Continent = Europe:\n");
  for (const auto& t :
       service.TopTreatments("so", ds.default_query, ds.dag, config, europe,
                             TreatmentSign::kPositive, 3)) {
    const auto [lo, hi] = t.effect.ConfidenceInterval();
    std::printf("  %-60.60s CATE %8.0f  [%.0f, %.0f]\n",
                t.pattern.ToString().c_str(), t.effect.cate, lo, hi);
  }

  // Machine-readable export for a front end.
  const std::string json = SummaryToJson(first, &ds.default_query);
  std::printf("\nJSON export (%zu bytes): %.120s...\n", json.size(),
              json.c_str());
  return 0;
}
