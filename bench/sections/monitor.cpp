// monitor — incremental windowed monitoring versus a cold
// from-scratch evaluation of every window.
//
// The monitoring workload: a sliding-window monitor watches an aggregate
// view while rows arrive. At each slide boundary the monitor pays only
// the delta — it extends cached bitsets by the newly appended rows,
// compacts expired rows through the exact retract path, and re-estimates
// only the subpopulations the boundary dirtied (appended rows land in
// the newest buckets of the synthetic grouping attributes and expired
// rows leave the oldest, so the middle buckets' CATE memos carry over).
// The cold baseline rebuilds a fresh table of exactly the surviving rows
// and runs the full pipeline from scratch, per window.
//
// Gate: every window summary the monitor emits is bit-identical to the
// cold rebuild of its surviving rows, and the per-boundary incremental
// evaluation is >= 3x faster than the cold window evaluation, best
// round against best round.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "causal/dag_io.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/timer.h"

namespace causumx::bench {

void Monitor(Section& s) {
  s.Banner("monitor", "incremental window evaluation vs cold rebuild");

  const size_t window_rows =
      std::max<size_t>(16000, static_cast<size_t>(32000 * s.scale()));
  constexpr int kRounds = 5;
  const size_t slide_rows = window_rows / 32;

  SyntheticOptions gen;
  gen.num_rows = window_rows + kRounds * slide_rows;
  gen.num_treatment_attrs = 7;
  // Bucket ranges are contiguous in arrival order: each slide appends
  // into the top bucket of every G_x and expires the bottom, leaving the
  // middle buckets' cached estimates valid — the skew a live view sees.
  gen.buckets_base = 6;  // G1: 12 buckets, G2: 18, G3: 24
  const GeneratedDataset ds = MakeSyntheticDataset(gen);

  // Grouping attributes as confounders, so the estimation work a
  // carried memo saves matches what a production service does.
  const CausalDag dag = WithGroupingConfounders(ds);

  // Reference configuration for the cold rebuild; the monitor spec below
  // encodes exactly the same knobs. Single-threaded on both sides so the
  // ratio measures cache work saved, not scheduler luck.
  CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());
  config.num_threads = 1;
  config.apriori_support = 0.05;  // G1 buckets sit at 8.3% support
  config.grouping_attribute_allowlist = {"G1"};

  JsonWriter spec;
  spec.BeginObject()
      .Key("table").String("live")
      .Key("group_by").BeginArray().String("G").EndArray()
      .Key("avg").String("O")
      .Key("dag_text").String(DagToText(dag))
      .Key("grouping_attrs").BeginArray().String("G1").EndArray();
  spec.Key("treatment_attrs").BeginArray();
  for (const std::string& t : ds.treatment_attribute_hint) spec.String(t);
  spec.EndArray()
      .Key("k").Uint(config.k)
      .Key("theta").Double(config.theta)
      .Key("support").Double(config.apriori_support)
      .Key("per_group_patterns").Bool(false)
      .Key("emit_summaries").Bool(true);
  spec.Key("window").BeginObject()
      .Key("kind").String("sliding")
      .Key("size_rows").Uint(window_rows)
      .Key("slide_rows").Uint(slide_rows)
      .EndObject();
  spec.EndObject();

  std::printf("dataset: %zu rows; window %zu, slide %zu, %d boundaries\n",
              gen.num_rows, window_rows, slide_rows, kRounds + 1);

  StreamMonitor monitor("m-bench", MonitorSpec::Parse(spec.str()), ds.table,
                        /*mining_pool=*/nullptr);

  // Warm-up: the first window assembles and evaluates cold — the steady
  // state starts once its caches exist.
  monitor.OnAppend(ds.table.MaterializeRows(0, window_rows));

  std::printf("\n%-6s %12s %12s %9s\n", "round", "incremental", "cold window",
              "speedup");
  std::vector<double> inc_times, cold_times;
  size_t at = window_rows;
  for (int round = 0; round < kRounds; ++round) {
    const size_t next = at + slide_rows;

    // Incremental: append one slide of rows — exactly one boundary
    // fires, paying delta extension + retract compaction + dirty-group
    // re-estimation inside the call.
    Timer inc_timer;
    monitor.OnAppend(ds.table.MaterializeRows(at, next));
    const double inc_s = inc_timer.Seconds();

    // Cold: rebuild a fresh table of exactly the surviving rows (fresh
    // dictionaries, as the monitor's compaction produces) and run the
    // full pipeline from scratch.
    Table rebuilt;
    for (size_t c = 0; c < ds.table.NumColumns(); ++c) {
      rebuilt.AddColumn(ds.table.column(c).name(), ds.table.column(c).type());
    }
    rebuilt.AppendRows(ds.table.MaterializeRows(next - window_rows, next));
    Timer cold_timer;
    const CauSumXResult cold =
        RunCauSumX(rebuilt, ds.default_query, dag, config);
    const double cold_s = cold_timer.Seconds();

    at = next;
    inc_times.push_back(inc_s);
    cold_times.push_back(cold_s);
    std::printf("%-6d %11.4fs %11.4fs %8.1fx\n", round + 1, inc_s, cold_s,
                cold_s / inc_s);

    const std::vector<MonitorEvent> events = monitor.EventsSince(0);
    s.ExpectIdentical(TrailingSummary(events.back().json),
                      SummaryToJson(cold.summary, &ds.default_query),
                      Fmt("round %d window summary", round + 1));
  }

  const MonitorStatus status = monitor.Status();
  std::printf("monitor: %llu rows observed, %llu windows, %llu events, "
              "%llu cache bytes resident\n",
              (unsigned long long)status.rows_observed,
              (unsigned long long)status.windows_evaluated,
              (unsigned long long)status.last_seq,
              (unsigned long long)status.cache_bytes);
  if (status.windows_evaluated != static_cast<uint64_t>(kRounds) + 1) {
    s.Fail(Fmt("expected %d windows, saw %llu", kRounds + 1,
               (unsigned long long)status.windows_evaluated));
  }
  s.ExpectBestOf("incremental speedup (cold / incremental)", cold_times,
                 inc_times, 3.0);
}

}  // namespace causumx::bench
