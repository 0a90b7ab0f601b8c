// Reproduces Fig. 14/20: runtime of each CauSumX phase (grouping-pattern
// mining, treatment-pattern mining, LP selection) per dataset. Expected
// shape: treatment mining dominates everywhere; phases 1 and 3 are
// comparatively negligible.
//
// Each dataset runs two arms — the full pipeline with the shared
// evaluation engine's caches enabled, and phases 1-2 over a cache-bypass
// engine — so the table also reports the phase-2 speedup the
// interned-predicate bitsets, the CATE memo and the Gram blocks buy, plus
// the cache counters behind it. The arms alternate, three rounds each,
// and each reports its best round, so neither arm is favoured by running
// first in a fresh process. Both arms run the lattice walk's overlap
// pre-check; uncached, it is a table scan.

#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/thread_pool.h"

namespace causumx::bench {

void PhaseBreakdown(Section& s) {
  s.Banner("Fig. 14/20", "runtime by phase of Algorithm 1");
  s.Table("Fig. 14/20",
          {{"dataset", -12}, {"grouping", 11, false}, {"treatment", 11, false},
           {"selection", 11, false}, {"total", 9, false},
           {"treat(nocache)", 14, false}, {"speedup", 8, false}});

  std::vector<std::pair<std::string, EngineCacheStats>> counters;
  for (const std::string& name : RegisteredDatasetNames()) {
    if (name == "Synthetic") continue;
    const GeneratedDataset ds =
        MakeDatasetByName(name, name == "German" ? 1.0 : s.scale());
    CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
    config.estimator.sample_cap = 50'000;

    // Three alternating rounds; each arm keeps its fastest phase 2. The
    // uncached arm runs phases 1-2 over a cache-bypass engine, mining on
    // a pool as wide as the cached run's.
    constexpr int kRounds = 3;
    CauSumXResult r;
    CandidateMiningResult u;
    ThreadPool pool(ThreadPool::DefaultThreads());
    for (int round = 0; round < kRounds; ++round) {
      CauSumXResult cached =
          RunCauSumX(ds.table, ds.default_query, ds.dag, config);
      if (round == 0 || cached.timings.Get("treatment") <
                            r.timings.Get("treatment")) {
        r = std::move(cached);
      }
      auto bypass = std::make_shared<EvalEngine>(
          BorrowTable(ds.table), EvalEngineOptions{.cache_enabled = false});
      CandidateMiningResult uncached = MineExplanationCandidates(
          ds.table, ds.default_query, ds.dag, config, bypass, nullptr, &pool);
      if (round == 0 || uncached.timings.Get("treatment") <
                            u.timings.Get("treatment")) {
        u = std::move(uncached);
      }
    }

    const double treatment = r.timings.Get("treatment");
    const double uncached = u.timings.Get("treatment");
    s.Row({name, Fmt("%.3fs", r.timings.Get("grouping")),
           Fmt("%.3fs", treatment),
           Fmt("%.3fs", r.timings.Get("selection")),
           Fmt("%.3fs", r.timings.Total()), Fmt("%.3fs", uncached),
           Fmt("%.2fx", treatment > 0 ? uncached / treatment : 0.0)});
    counters.emplace_back(name, r.cache_stats);
  }

  std::printf("\ncache counters (cached runs):\n");
  s.Table("cache counters",
          {{"dataset", -12}, {"bitsets", 10}, {"memo-hits", 10},
           {"memo-misses", 12}, {"gram-blocks", 12}});
  for (const auto& [name, c] : counters) {
    s.Row({name, Fmt("%llu", (unsigned long long)c.eval.bitsets_materialized),
           Fmt("%llu", (unsigned long long)c.estimator.memo_hits),
           Fmt("%llu", (unsigned long long)c.estimator.memo_misses),
           Fmt("%llu", (unsigned long long)c.estimator.gram_builds)});
  }
}

}  // namespace causumx::bench
