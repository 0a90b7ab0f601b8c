// service — warm-cache repeat-query speedup of the ExplanationService
// versus back-to-back cold RunCauSumX loops, plus memory-budget
// enforcement.
//
// The service's point is cross-query cache reuse: the first query over a
// table pays to materialize predicate bitsets and CATE estimates; an
// identical repeat is served from the caches (bit-identical results).
// Gate: warm repeat >= 2x faster than a cold re-run (median of 7 paired
// runs), and with a tight budget the accounted cache bytes stay under
// the cap.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/explanation_service.h"
#include "util/timer.h"

namespace causumx::bench {

void Service(Section& s) {
  s.Banner("service", "warm-cache repeat queries vs cold RunCauSumX");

  SyntheticOptions gen;
  // Floor at 12000 rows: below that the warm repeat is a few milliseconds
  // and the speedup measurement drowns in scheduler noise.
  gen.num_rows =
      std::max<size_t>(12000, static_cast<size_t>(20000 * s.scale()));
  gen.num_treatment_attrs = 5;
  GeneratedDataset ds = MakeSyntheticDataset(gen);
  CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
  std::printf("dataset: %s scaled to %zu rows\n", ds.name.c_str(),
              ds.table.NumRows());

  // Interleaved pairs: each round times one cold RunCauSumX (rebuilds
  // engine + context, as every call does today) immediately followed by
  // one warm service repeat, so both sides see the same machine
  // conditions; the median per-pair ratio is the noise-robust speedup
  // statistic on a shared/loaded box.
  constexpr int kPairs = 7;
  ExplanationService service;
  // A second generated copy (the generator is deterministic), so the
  // cold loop keeps ds.table while the service owns its own.
  service.RegisterTable("bench", std::move(MakeSyntheticDataset(gen).table));

  // Warm-up: populate the service caches and note both first-run costs.
  Timer first_timer;
  const CauSumXResult cold_run =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  const double cold_first = first_timer.Seconds();
  const std::string cold_json = SummaryToJson(cold_run.summary);
  first_timer.Reset();
  service.Explain("bench", ds.default_query, ds.dag, config);
  const double warm_first = first_timer.Seconds();

  std::vector<double> cold_times, warm_times;
  for (int i = 0; i < kPairs; ++i) {
    Timer timer;
    RunCauSumX(ds.table, ds.default_query, ds.dag, config);
    cold_times.push_back(timer.Seconds());
    timer.Reset();
    const CauSumXResult w =
        service.Explain("bench", ds.default_query, ds.dag, config);
    warm_times.push_back(timer.Seconds());
    s.ExpectIdentical(SummaryToJson(w.summary), cold_json,
                      Fmt("pair %d warm summary", i + 1));
  }

  std::printf("\n%-34s %10s\n", "mode", "seconds");
  std::printf("%-34s %10.4f\n", "cold RunCauSumX (first)", cold_first);
  std::printf("%-34s %10.4f\n", "cold RunCauSumX (repeat best)",
              Best(cold_times));
  std::printf("%-34s %10.4f\n", "service (first, cold caches)", warm_first);
  std::printf("%-34s %10.4f\n", "service (repeat best, warm)",
              Best(warm_times));
  s.ExpectMedianOfPairs("warm repeat speedup", cold_times, warm_times, 2.0);

  const auto engine_stats = service.Engine("bench")->Stats();
  std::printf("cache: %llu bitsets (%zu bytes), %llu hits\n",
              (unsigned long long)engine_stats.bitsets_materialized,
              engine_stats.bitset_bytes,
              (unsigned long long)engine_stats.bitset_hits);

  // --- budget enforcement ---------------------------------------------------
  s.Banner("service-budget", "LRU eviction under a tight memory budget");
  ServiceOptions tight;
  tight.memory_budget_bytes = 16 * 1024;
  ExplanationService bounded(tight);
  bounded.RegisterTable("bench", std::move(MakeSyntheticDataset(gen).table));
  for (int i = 0; i < 3; ++i) {
    Timer timer;
    const CauSumXResult r =
        bounded.Explain("bench", ds.default_query, ds.dag, config);
    const size_t bytes = bounded.CacheBytes();
    std::printf("query %d: %.4fs, cache %zu / %zu bytes\n", i + 1,
                timer.Seconds(), bytes, tight.memory_budget_bytes);
    if (bytes > tight.memory_budget_bytes) {
      s.Fail("cache bytes exceed the budget");
    }
    s.ExpectIdentical(SummaryToJson(r.summary), cold_json,
                      Fmt("budgeted query %d summary", i + 1));
  }
  std::printf("budget enforcements that evicted: %llu\n",
              (unsigned long long)bounded.Stats().budget_enforcements);
}

}  // namespace causumx::bench
