// Layer-attributed benchmark driver: types shared by the three workloads.
//
// The driver measures CauSumX from the outside. It calls only the public
// functions of the src/ modules and times those calls, so a traced run
// needs no instrumentation inside the library. See ../README.md for the
// workloads, the metrics, and how each layer metric maps to an
// end-to-end one.

#ifndef LAYERBENCH_DRIVER_BENCH_H_
#define LAYERBENCH_DRIVER_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/causumx.h"
#include "datagen/common.h"

namespace layerbench {

using causumx::CauSumXConfig;
using causumx::CauSumXResult;
using causumx::GeneratedDataset;
using causumx::GroupByAvgQuery;

/// Milliseconds since the process started (steady clock, anchored by the
/// first call, which main makes on entry).
double NowMs();

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;   ///< tiny inputs: the self-check runs in seconds
  bool tamper = false;  ///< corrupt one reference answer (self-check)
  std::string out_dir;  ///< spans file and per-run scratch directories
  std::string golden_path;        ///< committed digests for seed 0
  std::string write_golden_path;  ///< write this run's digests here
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// Median of a sample.
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload reports back to main.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra run metadata: key -> raw JSON value.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Reference digests by answer key (written with --write-golden).
  std::map<std::string, std::string> digests;
};

/// Counts checked operations and failed ones. A failure is a non-2xx
/// status, a transport error, or an answer that differs from the
/// reference; it is counted, never fatal. Thread-safe.
class Checker {
 public:
  void Record(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// One traced interval. Spans of one operation share `request`.
struct Span {
  std::string name;
  std::string layer;
  double start_ms = 0;
  double end_ms = 0;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root
  std::string request;
};

/// In-memory span store, written out once when the run ends.
/// Thread-safe.
class SpanLog {
 public:
  /// Records a span and returns its id.
  int64_t Add(const std::string& name, const std::string& layer,
              double start_ms, double end_ms, int64_t parent,
              const std::string& request);
  std::vector<Span> Snapshot() const;
  void WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per layer, summed over `spans`: each span's duration minus
/// the part of it that its children cover.
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

/// The five paper datasets in Table 3 order.
const std::vector<std::string>& PaperDatasets();

/// Generates a paper dataset with the generator seed shifted by `seed`
/// (seed 0 = each generator's default seed). Rows are scaled as the
/// dataset registry scales them.
GeneratedDataset MakePaperDataset(const std::string& name, double scale,
                                  uint64_t seed);

/// An explain request in documented REST fields only; ToConfig maps the
/// fields to the configuration the server builds from them.
struct ExplainSpec {
  std::string key;  ///< answer key for references and golden digests
  std::string table;
  GroupByAvgQuery query;
  std::string dag_path;
  double k = 5;
  double theta = 0.75;
  double alpha = 0.05;

  std::string ToJson(const std::string& id) const;
  CauSumXConfig ToConfig() const;
};

/// The dataset's default query as a request over `table`, reading its
/// causal DAG from `dag_path`. German keeps the paper's looser alpha and
/// theta.
ExplainSpec DefaultSpec(const GeneratedDataset& ds, const std::string& table,
                        const std::string& dag_path);

/// Writes the dataset's own DAG to `path`.
void WriteDagFile(const GeneratedDataset& ds, const std::string& path);

/// FNV-1a 64-bit digest as 16 hex digits.
std::string Digest(const std::string& text);
/// Digest of the summary exactly as the CLI's --json prints it.
std::string SummaryDigest(const CauSumXResult& result,
                          const GroupByAvgQuery& query);

/// The exact "summary" member text of an explain response body.
std::string ExtractSummary(const std::string& body);
/// A top-level numeric member of a flat response body (NaN if absent).
double ExtractNumber(const std::string& body, const std::string& key);
/// The "id" string member of a request body ("" if absent).
std::string ExtractId(const std::string& body);

/// Serializes rows as a JSON array of arrays (doubles round-trip).
std::string RowsJson(const std::vector<std::vector<causumx::Value>>& rows,
                     size_t begin, size_t end);

/// Committed reference digests for the default seed.
class Golden {
 public:
  /// Loads the workload's section; inactive unless `active` is true and
  /// the file holds the section.
  void Load(const std::string& path, const std::string& workload,
            bool active);
  bool active() const { return active_; }
  /// The committed digest for `key` ("" when none is committed).
  std::string Get(const std::string& key) const;

 private:
  bool active_ = false;
  std::map<std::string, std::string> digests_;
};

/// The answer an operation must produce: the reference digest and, for
/// the default seed, the committed golden one as well.
struct Expected {
  std::string reference;
  std::string golden;  ///< "" = no golden check
  bool Matches(const std::string& digest) const {
    return digest == reference && (golden.empty() || digest == golden);
  }
};

/// Peak resident set of this process in MB (ru_maxrss).
double PeakRssMb();

/// Creates (fresh) and returns a scratch directory under out_dir.
std::string MakeScratchDir(const RunArgs& args, const std::string& tag);
/// Removes a scratch directory tree.
void RemoveTree(const std::string& path);

/// Whether a timed phase made of whole units (cycles, rounds, passes)
/// stops after `units` of them took `elapsed_ms`: it runs the whole
/// number of units closest to `seconds`, and at least one, so every run
/// weighs its inputs alike.
inline bool PhaseDone(double elapsed_ms, size_t units, double seconds) {
  return elapsed_ms + elapsed_ms / static_cast<double>(units) / 2 >=
         seconds * 1e3;
}

/// Median of several set-up durations, as the setup_s metric.
Metric SetupMetric(const std::vector<double>& setup_seconds);

/// End-to-end explain metrics from client-side latencies (ms) over a
/// timed phase of `phase_s` seconds.
void AddExplainMetrics(const std::vector<double>& latencies_ms,
                       double phase_s, Outcome* out);

/// Per-op self time of every layer in `spans`, as `<layer>.self_ms`.
void AddSelfTimeMetrics(const std::vector<Span>& spans, size_t ops,
                        Outcome* out);

/// Cache counters summed over the explains of a traced phase; reported
/// as per-explain means (bytes: mean resident size after an explain).
struct CounterSums {
  size_t explains = 0;
  double memo_hits = 0;
  double memo_misses = 0;
  double memo_bytes = 0;
  double memo_migrated = 0;
  double segments_materialized = 0;
  double bitset_hits = 0;
  double pattern_evals = 0;
  double bitset_bytes = 0;
  double bitsets_extended = 0;
  double bitsets_retracted = 0;

  /// Adds one explain's counter diff and resident sizes.
  void AddExplain(const causumx::EngineCacheStats& before,
                  const causumx::EngineCacheStats& after) {
    AddPhase(before, after, 1);
  }
  /// Adds the counter diff of a phase of `n` explains; the resident
  /// sizes at its end count for each of them.
  void AddPhase(const causumx::EngineCacheStats& before,
                const causumx::EngineCacheStats& after, size_t n);
};
void AddCounterMetrics(const CounterSums& sums, Outcome* out);

/// Phase timings and candidate counts of CauSumXResults (mining, lp).
struct MiningSamples {
  std::vector<double> grouping_ms;
  std::vector<double> treatment_ms;
  std::vector<double> selection_ms;
  double patterns_evaluated = 0;
  double grouping_candidates = 0;
  double candidates = 0;

  void Add(const CauSumXResult& r);
};
void AddMiningMetrics(const MiningSamples& samples, Outcome* out);

/// trace.overhead_pct: traced against untraced explain p50.
void AddOverheadMetric(const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms, Outcome* out);

/// Workload entry points.
Outcome RunColdPaper(const RunArgs& args);
Outcome RunWarmMix(const RunArgs& args);
Outcome RunAppendStream(const RunArgs& args);

}  // namespace layerbench

#endif  // LAYERBENCH_DRIVER_BENCH_H_
