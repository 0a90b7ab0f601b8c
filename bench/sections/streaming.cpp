// streaming — incremental append + re-query through the service's
// delta-aware caches versus a cold reload after every delta.
//
// The streaming workload: an aggregate view is being watched while rows
// arrive. Without Append, each refresh re-registers the grown table and
// pays full cache materialization (every predicate bitset, every CATE)
// again; with Append, cached bitsets extend by evaluating only the delta
// rows and CATE memos carry over wherever the touched subpopulation did
// not grow (appended rows land in the latest buckets of the synthetic
// grouping attributes, so most subpopulations are untouched — the
// realistic skew of live traffic).
//
// Gate: per-round summaries bit-identical to the cold reload, and
// incremental speedup >= 3x, best round against best round: every round
// does the same work by construction (equal chunks, all landing in the
// top bucket of each grouping attribute).

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

void Streaming(Section& s) {
  s.Banner("streaming", "incremental append + re-query vs cold reload");

  SyntheticOptions gen;
  // Floor at 24k rows: estimation cost (what the carried memos save)
  // scales with rows, while the per-node walk bookkeeping both sides pay
  // does not — smaller tables understate the streaming win and drown the
  // ratio in scheduler noise.
  gen.num_rows =
      std::max<size_t>(24000, static_cast<size_t>(40000 * s.scale()));
  gen.num_treatment_attrs = 5;
  // Bucket ranges are contiguous in arrival order, so appended rows land
  // in the top bucket of each G_x — the skew a live view sees when fresh
  // rows cluster in the newest segment. Mining below is restricted to
  // G1's 12 buckets, so one refresh invalidates exactly 1 of 12 mined
  // subpopulations.
  gen.buckets_base = 6;  // G1: 12 buckets, G2: 18, G3: 24
  const GeneratedDataset ds = MakeSyntheticDataset(gen);
  CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
  // G1 buckets sit at 8.3% support; the default 0.1 would drop them all.
  config.apriori_support = 0.05;
  config.grouping_attribute_allowlist = {"G1"};

  // Real views adjust for a backdoor set: the grouping attributes are
  // confounders, so the estimation work a carried memo saves is the work
  // a production service does.
  const CausalDag dag = WithGroupingConfounders(ds);

  const size_t total = ds.table.NumRows();
  // 5% of the data arrives as deltas: small enough that each chunk stays
  // inside the top bucket of every grouping attribute (one invalidated
  // subpopulation per attribute), large enough to be a real refresh.
  const size_t base_rows = (total * 95) / 100;
  constexpr int kRounds = 5;
  const size_t chunk = (total - base_rows) / kRounds;
  std::printf("dataset: %zu rows; base %zu + %d deltas of ~%zu rows\n",
              total, base_rows, kRounds, chunk);

  // Single-threaded mining on both sides: the ratio measures cache work
  // saved, not scheduler luck, and results are bit-identical either way.
  ServiceOptions serial;
  serial.num_threads = 1;
  ExplanationService streaming(serial);
  streaming.RegisterTable("live", ds.table.Head(base_rows));
  // Warm the caches once — the steady state a live service runs in.
  streaming.Explain("live", ds.default_query, dag, config);

  std::printf("\n%-6s %12s %12s %9s\n", "round", "incremental", "cold reload",
              "speedup");
  std::vector<double> inc_times, cold_times;
  size_t at = base_rows;
  for (int round = 0; round < kRounds; ++round) {
    const size_t next = (round == kRounds - 1) ? total : at + chunk;

    // Incremental: append the delta through the delta-aware caches and
    // re-query warm.
    Timer inc_timer;
    streaming.Append("live", ds.table.MaterializeRows(at, next));
    const CauSumXResult inc =
        streaming.Explain("live", ds.default_query, dag, config);
    const double inc_s = inc_timer.Seconds();

    // Cold reload: re-register the same grown table from scratch and pay
    // full cache materialization on the query. (The table object itself
    // is built outside the timer; reload cost is registration + query.)
    Table grown = ds.table.Head(next);
    Timer cold_timer;
    ExplanationService fresh(serial);
    fresh.RegisterTable("live", std::move(grown));
    const CauSumXResult cold =
        fresh.Explain("live", ds.default_query, dag, config);
    const double cold_s = cold_timer.Seconds();

    at = next;
    inc_times.push_back(inc_s);
    cold_times.push_back(cold_s);
    std::printf("%-6d %11.4fs %11.4fs %8.1fx\n", round + 1, inc_s, cold_s,
                cold_s / inc_s);
    s.ExpectIdentical(SummaryToJson(inc.summary), SummaryToJson(cold.summary),
                      Fmt("round %d incremental summary", round + 1));
  }

  const EvalEngineStats engine_stats = streaming.Engine("live")->Stats();
  std::printf("post-append engine: %llu bitsets extended, %llu rebuilt, "
              "%llu views extended\n",
              (unsigned long long)engine_stats.bitsets_extended,
              (unsigned long long)engine_stats.bitsets_materialized,
              (unsigned long long)engine_stats.column_views_extended);
  const ServiceStats stats = streaming.Stats();
  std::printf("service: %llu appends, %llu rows appended, table version "
              "%llu\n",
              (unsigned long long)stats.appends_executed,
              (unsigned long long)stats.rows_appended,
              (unsigned long long)streaming.TableVersion("live"));

  s.ExpectBestOf("incremental speedup (cold / incremental)", cold_times,
                 inc_times, 3.0);
}

}  // namespace causumx::bench
