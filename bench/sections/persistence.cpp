// persistence — warm restart from a durable snapshot versus a cold
// start that rebuilds every cache from the raw table.
//
// The restart workload: a service process dies (deploy, OOM, host move)
// and comes back. Without snapshots it re-registers the table and the
// first query pays full cache materialization — every predicate bitset
// and every CATE memo entry recomputed. With snapshots it reads one file,
// rebuilds the table from the columnar sections, imports the interned
// predicates, cached bitset segments, and memo entries, and the first
// query is served warm.
//
// Gate: the warm first query is bit-identical to the cold one, and warm
// restart (restore + query) is >= 3x faster than cold start (register +
// query), best round against best round.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/explanation_service.h"
#include "storage/file_io.h"
#include "util/timer.h"

namespace causumx::bench {

void Persistence(Section& s) {
  s.Banner("persistence", "warm restart from snapshot vs cold cache rebuild");

  SyntheticOptions gen;
  // Floor at 24k rows: the work a snapshot saves (estimation + bitset
  // materialization) scales with rows, while the restore cost is one
  // sequential file read — smaller tables understate the restart win.
  gen.num_rows =
      std::max<size_t>(24000, static_cast<size_t>(40000 * s.scale()));
  gen.num_treatment_attrs = 5;
  const GeneratedDataset ds = MakeSyntheticDataset(gen);
  CauSumXConfig config = ConfigFor(ds, PaperDefaultConfig());

  // Grouping attributes as confounders, so the estimation work a
  // restored memo saves matches what a production service pays.
  const CausalDag dag = WithGroupingConfounders(ds);

  char dir_template[] = "/tmp/causumx_bench_persist_XXXXXX";
  const char* data_dir = ::mkdtemp(dir_template);
  if (data_dir == nullptr) {
    s.Fail("mkdtemp failed");
    return;
  }
  // Single-threaded mining on both sides: the ratio measures cache work
  // saved, not scheduler luck, and results are bit-identical either way.
  ServiceOptions serial;
  serial.num_threads = 1;
  ServiceOptions persistent = serial;
  persistent.data_dir = data_dir;

  // Write the snapshot a restart would find: register, warm the caches
  // with the query under test, snapshot.
  std::string reference_json;
  {
    ExplanationService writer(persistent);
    writer.RegisterTable("live", ds.table.Head(ds.table.NumRows()));
    const CauSumXResult warmed =
        writer.Explain("live", ds.default_query, dag, config);
    reference_json = SummaryToJson(warmed.summary);
    const size_t bytes = writer.SaveSnapshot("live");
    std::printf("dataset: %zu rows; snapshot %.2f MiB at %s\n",
                ds.table.NumRows(), bytes / (1024.0 * 1024.0), data_dir);
  }

  constexpr int kRounds = 4;
  std::printf("\n%-6s %12s %12s %9s\n", "round", "warm restart",
              "cold start", "speedup");
  std::vector<double> warm_times, cold_times;
  for (int round = 0; round < kRounds; ++round) {
    // Warm restart: a fresh process restores the snapshot from disk and
    // serves the first query from the imported caches. The timer covers
    // the whole restart path: file read, table + cache import, query.
    Timer warm_timer;
    ExplanationService warm_service(persistent);
    if (warm_service.RestoreAll() != 1) {
      s.Fail(Fmt("round %d restored != 1 table", round + 1));
      break;
    }
    const CauSumXResult warm =
        warm_service.Explain("live", ds.default_query, dag, config);
    const double warm_s = warm_timer.Seconds();

    // Cold start: the same fresh process without a snapshot registers
    // the raw table and pays full materialization on the first query.
    // (The table copy itself is built outside the timer on both sides.)
    Table raw = ds.table.Head(ds.table.NumRows());
    Timer cold_timer;
    ExplanationService cold_service(serial);
    cold_service.RegisterTable("live", std::move(raw));
    const CauSumXResult cold =
        cold_service.Explain("live", ds.default_query, dag, config);
    const double cold_s = cold_timer.Seconds();

    warm_times.push_back(warm_s);
    cold_times.push_back(cold_s);
    std::printf("%-6d %11.4fs %11.4fs %8.1fx\n", round + 1, warm_s, cold_s,
                cold_s / warm_s);
    const std::string warm_json = SummaryToJson(warm.summary);
    s.ExpectIdentical(warm_json, SummaryToJson(cold.summary),
                      Fmt("round %d warm summary", round + 1));
    s.ExpectIdentical(warm_json, reference_json,
                      Fmt("round %d warm summary (vs the snapshot writer)",
                          round + 1));
    if (warm.cache_stats.estimator.memo_hits == 0) {
      s.Fail(Fmt("round %d warm query had zero memo hits — the restore "
                 "did not actually carry the CATE cache",
                 round + 1));
    }
  }

  if (s.ok()) {
    s.ExpectBestOf("warm-restart speedup (cold / warm)", cold_times,
                   warm_times, 3.0);
  }

  for (const std::string& f : ListDirFiles(data_dir)) {
    ::unlink((std::string(data_dir) + "/" + f).c_str());
  }
  ::rmdir(data_dir);
}

}  // namespace causumx::bench
