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
//
// Usage: bench_phase_breakdown [--json FILE]
//   --json writes the rows as a JSON array (see tools/run_bench.sh).

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/thread_pool.h"

using namespace causumx;

namespace {

struct Row {
  std::string dataset;
  double grouping = 0;
  double treatment = 0;
  double selection = 0;
  double total = 0;
  double treatment_uncached = 0;
  double speedup = 0;
  EngineCacheStats cache;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"dataset\": \"" << r.dataset << "\""
        << ", \"grouping_s\": " << r.grouping
        << ", \"treatment_s\": " << r.treatment
        << ", \"selection_s\": " << r.selection
        << ", \"total_s\": " << r.total
        << ", \"treatment_uncached_s\": " << r.treatment_uncached
        << ", \"treatment_speedup\": " << r.speedup
        << ", \"predicates_interned\": " << r.cache.eval.predicates_interned
        << ", \"bitsets_materialized\": " << r.cache.eval.bitsets_materialized
        << ", \"bitset_hits\": " << r.cache.eval.bitset_hits
        << ", \"memo_hits\": " << r.cache.estimator.memo_hits
        << ", \"memo_misses\": " << r.cache.estimator.memo_misses
        << ", \"gram_builds\": " << r.cache.estimator.gram_builds
        << ", \"gram_hits\": " << r.cache.estimator.gram_hits << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const double scale = bench::BenchScale();
  bench::Banner("Fig. 14/20", "runtime by phase of Algorithm 1");
  std::printf("%-12s %11s %11s %11s %9s | %12s %8s\n", "dataset", "grouping",
              "treatment", "selection", "total", "treat(nocache)", "speedup");

  std::vector<Row> rows;
  for (const std::string& name : RegisteredDatasetNames()) {
    if (name == "Synthetic") continue;
    const GeneratedDataset ds =
        MakeDatasetByName(name, name == "German" ? 1.0 : scale);
    CauSumXConfig config = bench::ConfigFor(ds, bench::PaperDefaultConfig());
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

    Row row;
    row.dataset = name;
    row.grouping = r.timings.Get("grouping");
    row.treatment = r.timings.Get("treatment");
    row.selection = r.timings.Get("selection");
    row.total = r.timings.Total();
    row.treatment_uncached = u.timings.Get("treatment");
    row.speedup = row.treatment > 0 ? row.treatment_uncached / row.treatment
                                    : 0.0;
    row.cache = r.cache_stats;
    rows.push_back(row);

    std::printf("%-12s %10.3fs %10.3fs %10.3fs %8.3fs | %11.3fs %7.2fx\n",
                name.c_str(), row.grouping, row.treatment, row.selection,
                row.total, row.treatment_uncached, row.speedup);
  }

  std::printf("\ncache counters (cached runs): ");
  for (const Row& r : rows) {
    std::printf("%s: %llu bitsets, %llu memo hits / %llu misses, %llu "
                "Gram blocks;  ",
                r.dataset.c_str(),
                (unsigned long long)r.cache.eval.bitsets_materialized,
                (unsigned long long)r.cache.estimator.memo_hits,
                (unsigned long long)r.cache.estimator.memo_misses,
                (unsigned long long)r.cache.estimator.gram_builds);
  }
  std::printf("\n");

  if (!json_path.empty()) {
    WriteJson(json_path, rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
