// shards — end-to-end sharded parallel execution versus the serial
// single-shard reference on a synthetic table (1M rows at
// CAUSUMX_BENCH_SCALE=1.0).
//
// Three configurations run the identical cold query (fresh caches each
// round, table and pool construction outside the timer):
//
//   serial    service, 1 thread    (one shard: the reference path)
//   pattern   engine with 1 shard  (pre-sharding parallelism only:
//             on an N-thread pool   phase-2 mining across patterns)
//   sharded   service, N threads   (one row shard per worker through the
//                                   whole hot path: segment builds, the
//                                   view, CATE sufficient statistics,
//                                   the greedy scan)
//
// Gate: summaries bit-identical across every configuration and round —
// the sharded engine's core guarantee — and a sharded-vs-serial speedup
// of >= 2.5x when 8 hardware threads are available, with the bar scaled
// down on smaller machines (parallel speedup is bounded by the core
// count), best round against best round.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/explanation_service.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace causumx::bench {

namespace {

struct RunResult {
  std::string summary_json;
  double best_seconds = 0.0;
  EvalEngineStats engine_stats;
};

// `single_shard` runs the pattern-parallel arm: a one-shard engine on an
// N-thread pool. Otherwise a service of `threads` workers plans one
// shard per worker.
RunResult RunConfiguration(Section& s, const GeneratedDataset& ds,
                           const GroupByAvgQuery& query,
                           const CausalDag& dag,
                           const CauSumXConfig& config, bool single_shard,
                           size_t threads, int rounds) {
  RunResult result;
  std::vector<double> times;
  for (int round = 0; round < rounds; ++round) {
    auto copy = std::make_shared<const Table>(ds.table.Clone());
    CauSumXResult r;
    std::shared_ptr<EvalEngine> engine;
    if (single_shard) {
      auto pool = std::make_shared<ThreadPool>(threads);
      Timer timer;
      engine = std::make_shared<EvalEngine>(
          copy, EvalEngineOptions{.num_shards = 1, .pool = pool});
      r = RunCauSumX(*copy, query, dag, config, engine, nullptr, pool.get());
      times.push_back(timer.Seconds());
    } else {
      ServiceOptions options;
      options.num_threads = threads;
      ExplanationService service(options);
      Timer timer;
      service.RegisterTable("t", copy);
      r = service.Explain("t", query, dag, config);
      times.push_back(timer.Seconds());
      engine = service.Engine("t");
    }
    const std::string json = SummaryToJson(r.summary);
    if (round == 0) {
      result.summary_json = json;
      result.engine_stats = engine->Stats();
    } else {
      s.ExpectIdentical(json, result.summary_json,
                        Fmt("round %d summary (within one configuration)",
                            round + 1));
    }
  }
  result.best_seconds = Best(times);
  return result;
}

}  // namespace

void Shards(Section& s) {
  s.Banner("shards", "sharded parallel execution vs the serial reference");

  SyntheticOptions gen;
  // 1M rows at full scale; floor at 60k so the workload stays estimation-
  // bound (the per-row work sharding parallelizes) even in CI smoke runs.
  gen.num_rows =
      std::max<size_t>(60000, static_cast<size_t>(1000000 * s.scale()));
  gen.num_treatment_attrs = 4;
  gen.buckets_base = 6;  // G1: 12 buckets
  const GeneratedDataset ds = MakeSyntheticDataset(gen);
  CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
  config.num_threads = 0;  // mine on the service or engine pool
  config.apriori_support = 0.05;  // G1 buckets sit at 8.3% support
  config.grouping_attribute_allowlist = {"G1"};
  // A realistic serving view: moderate group cardinality (G2's 18
  // buckets), explained by patterns over G1's 12 buckets. (The unique-
  // per-tuple G key would make the view itself the bottleneck and its
  // serial group merge the Amdahl ceiling.)
  GroupByAvgQuery query;
  query.group_by = {"G2"};
  query.avg_attribute = "O";

  // Grouping attributes as confounders: every CATE then adjusts over ~50
  // one-hot design columns — the blocked normal-equation reduction this
  // gate shards is the work a production service actually does.
  const CausalDag dag = WithGroupingConfounders(ds);

  const size_t hw = ThreadPool::DefaultThreads();
  const size_t threads = hw >= 8 ? 8 : hw;
  // The acceptance bar: 2.5x at 8 threads (the headline target), scaled
  // to the parallelism actually available on this machine — end-to-end
  // speedup is bounded by the core count, and 2-vCPU CI runners are
  // typically shared/throttled.
  const double bar = threads >= 8   ? 2.5
                     : threads >= 4 ? 1.7
                     : threads >= 2 ? 1.2
                                    : 1.0;
  constexpr int kRounds = 3;
  std::printf("dataset: %zu rows; %zu hardware threads, benching %zu "
              "threads, bar %.2fx\n",
              ds.table.NumRows(), hw, threads, bar);

  const RunResult serial = RunConfiguration(s, ds, query, dag, config,
                                            /*single_shard=*/false,
                                            /*threads=*/1, kRounds);
  std::printf("%-28s best %8.3fs\n", "serial (shards=1,threads=1)",
              serial.best_seconds);
  const RunResult pattern = RunConfiguration(
      s, ds, query, dag, config, /*single_shard=*/true, threads, kRounds);
  std::printf("%-28s best %8.3fs (%.2fx)\n", "pattern-parallel (shards=1)",
              pattern.best_seconds,
              serial.best_seconds / pattern.best_seconds);
  const RunResult sharded = RunConfiguration(
      s, ds, query, dag, config, /*single_shard=*/false, threads, kRounds);
  std::printf("%-28s best %8.3fs (%.2fx)\n", "sharded (shards=auto)",
              sharded.best_seconds,
              serial.best_seconds / sharded.best_seconds);

  std::printf("\nsharded engine: %zu shards, %llu segments built, "
              "%llu segment hits\n",
              sharded.engine_stats.num_shards,
              (unsigned long long)sharded.engine_stats.bitsets_materialized,
              (unsigned long long)sharded.engine_stats.bitset_hits);

  s.ExpectIdentical(pattern.summary_json, serial.summary_json,
                    "pattern-parallel summary");
  s.ExpectIdentical(sharded.summary_json, serial.summary_json,
                    "sharded summary");
  s.ExpectSpeedup("end-to-end sharded speedup",
                  serial.best_seconds / sharded.best_seconds, bar,
                  Fmt("best-of-%d serial / best-of-%d sharded at %zu threads",
                      kRounds, kRounds, threads));
}

}  // namespace causumx::bench
