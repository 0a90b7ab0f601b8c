// The shared harness of causumx_bench: one executable with one named
// section per table or figure of the paper's evaluation (Section 6) and
// per CI speed gate.
//
// A section is a function of a Section context. Figure sections print
// through Banner / Table / Row / Text, and every cell of a recorded
// column is kept: `causumx_bench --json FILE` writes those cells at their
// printed precision. Runtimes and speed ratios are printed, never
// recorded, so the file is deterministic. Gate sections report their
// bit-identity and speedup checks through Expect* / Fail; one failed
// check fails the section and the run.
//
// Dataset sizes scale with CAUSUMX_BENCH_SCALE (default 0.2; 1.0 is the
// paper's scale).

#ifndef CAUSUMX_BENCH_HARNESS_H_
#define CAUSUMX_BENCH_HARNESS_H_

#include <string>
#include <utility>
#include <vector>

#include "core/causumx.h"
#include "datagen/registry.h"

namespace causumx::bench {

/// printf into a std::string (the format is checked at compile time).
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// One printed column: header, cell width (negative left-aligns), and
/// whether --json records its cells (false for runtimes and ratios).
struct Col {
  std::string header;
  int width;
  bool recorded = true;
};

/// The context one section runs in.
class Section {
 public:
  /// Recorded rows (the first is the header) of each titled table.
  using Recorded = std::vector<
      std::pair<std::string, std::vector<std::vector<std::string>>>>;

  explicit Section(double scale) : scale_(scale) {}

  /// CAUSUMX_BENCH_SCALE: the dataset row multiplier.
  double scale() const { return scale_; }

  /// Prints a figure/table banner.
  void Banner(const char* id, const char* description) const;

  /// Starts a table recorded under `title` (unique within the section)
  /// and prints its header; Row adds to the latest table.
  void Table(std::string title, std::vector<Col> cols);
  /// Prints one row of pre-formatted cells, one per column.
  void Row(const std::vector<std::string>& cells);

  /// Prints `text` and records its lines under `title`.
  void Text(std::string title, const std::string& text);

  /// Fails the section unless `got` equals `want` byte for byte (the
  /// SummaryToJson bit-identity check of every gate).
  void ExpectIdentical(const std::string& got, const std::string& want,
                       const std::string& what);

  /// Speed gate on the best (smallest) of N timings per side — noise
  /// only ever inflates a round: fails unless Best(slow) / Best(fast)
  /// reaches `bar`.
  void ExpectBestOf(const char* what, const std::vector<double>& slow,
                    const std::vector<double>& fast, double bar);

  /// Speed gate on the median of paired ratios slow[i] / fast[i] — each
  /// pair runs back to back under the same machine conditions.
  void ExpectMedianOfPairs(const char* what, const std::vector<double>& slow,
                           const std::vector<double>& fast, double bar);

  /// Prints a speedup with its statistic; fails below `bar`.
  void ExpectSpeedup(const char* what, double speedup, double bar,
                     const std::string& statistic);

  /// Prints "FAIL: message" and fails the section.
  void Fail(const std::string& message);

  bool ok() const { return ok_; }
  const Recorded& recorded() const { return recorded_; }

 private:
  double scale_;
  bool ok_ = true;
  Recorded recorded_;
  std::vector<Col> cols_;  // of the latest Table
};

/// Best (smallest) of N timings.
double Best(const std::vector<double>& seconds);

/// The raw SummaryToJson text of the "summary" member that closes a JSON
/// object (an explain response without cache stats, a monitor summary
/// event); "" if there is none.
std::string TrailingSummary(const std::string& json);

/// The paper's default configuration (Section 6.1): k=5, theta=0.75,
/// Apriori tau=0.1.
CauSumXConfig PaperDefaultConfig();

/// Applies per-dataset knobs that mirror the paper's setups (German needs
/// a looser alpha and smaller minimum group size at 1000 rows; the
/// synthetic dataset needs its explicit attribute partition).
CauSumXConfig ConfigFor(const GeneratedDataset& ds, CauSumXConfig config);

/// The synthetic ground-truth DAG with every grouping attribute declared
/// a confounder (G_x -> T_y, G_x -> O). The bare DAG makes each CATE a
/// two-column regression; with the confounders every estimate one-hot
/// encodes G1/G2/G3 (~50 design columns), so the estimation work a
/// cache saves is the work a production service does.
CausalDag WithGroupingConfounders(const GeneratedDataset& ds);

// Sections, one per file under bench/sections/.
void Datasets(Section& s);
void Variants(Section& s);
void VaryK(Section& s);
void Accuracy(Section& s);
void ScaleRows(Section& s);
void ScaleAttrs(Section& s);
void ScaleTreatments(Section& s);
void PhaseBreakdown(Section& s);
void CateSampling(Section& s);
void DagSensitivity(Section& s);
void AprioriThreshold(Section& s);
void CaseStudies(Section& s);
void BaselineQuality(Section& s);
void Ablation(Section& s);
void Service(Section& s);
void Streaming(Section& s);
void Shards(Section& s);
void Server(Section& s);
void Persistence(Section& s);
void Monitor(Section& s);
void Kernels(Section& s);

}  // namespace causumx::bench

#endif  // CAUSUMX_BENCH_HARNESS_H_
