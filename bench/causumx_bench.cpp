// causumx_bench — the reproduction harness and CI speed gates in one
// executable (see bench/harness.h).
//
// Usage: causumx_bench [--list] [--json FILE] [SECTION ...]
//   SECTION ...  run these sections in table order (default: all)
//   --list       print the section names and exit
//   --json FILE  write the recorded figure cells as JSON (REPRO.json is
//                this file at CAUSUMX_BENCH_SCALE=0.05)
// Env:   CAUSUMX_BENCH_SCALE  dataset row multiplier (> 0, default 0.2)
// Exit:  0 every check passed, 1 a check failed, 2 bad arguments.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/json.h"
#include "util/timer.h"

using namespace causumx;
using namespace causumx::bench;

namespace {

struct Entry {
  const char* name;
  const char* what;
  void (*run)(Section&);
};

// Paper order (Section 6), then the CI gates.
constexpr Entry kSections[] = {
    {"datasets", "Tables 1, 3 and Fig. 3: datasets, SO DAG", Datasets},
    {"variants", "Fig. 8: CauSumX vs Greedy vs Brute-Force", Variants},
    {"vary_k", "Fig. 9: explainability and coverage vs k", VaryK},
    {"accuracy", "Fig. 10: mining precision and recall", Accuracy},
    {"scale_rows", "Fig. 11: runtime vs rows", ScaleRows},
    {"scale_attrs", "Fig. 12: runtime vs attributes", ScaleAttrs},
    {"scale_treatments", "Fig. 13: runtime vs atoms", ScaleTreatments},
    {"phase_breakdown", "Fig. 14/20: phases, caches on/off", PhaseBreakdown},
    {"cate_sampling", "Fig. 15/22: CATE sample size", CateSampling},
    {"dag_sensitivity", "Table 4, Fig. 16/23: DAG choice", DagSensitivity},
    {"apriori_threshold", "Fig. 21: Apriori threshold", AprioriThreshold},
    {"case_studies", "Figs. 2, 6, 7, 18, 19: case studies", CaseStudies},
    {"baseline_quality", "Sec. 6.2: quality vs baselines", BaselineQuality},
    {"ablation", "design-choice ablation", Ablation},
    {"service", "gate: warm repeat >= 2x cold, budget cap", Service},
    {"streaming", "gate: append + re-query >= 3x cold reload", Streaming},
    {"shards", "gate: sharded vs serial, per-core-count bar", Shards},
    {"server", "gate: HTTP warm repeat >= 2x, bit-identical", Server},
    {"persistence", "gate: snapshot restart >= 3x cold start", Persistence},
    {"monitor", "gate: incremental window >= 3x cold", Monitor},
    {"kernels", "gate: vectorized kernels vs scalar loops", Kernels},
};

void PrintSections(FILE* out) {
  for (const Entry& e : kSections) {
    std::fprintf(out, "  %-18s %s\n", e.name, e.what);
  }
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "causumx_bench: %s\n"
               "usage: causumx_bench [--list] [--json FILE] [SECTION ...]\n"
               "sections:\n",
               message.c_str());
  PrintSections(stderr);
  return 2;
}

// CAUSUMX_BENCH_SCALE: unset means 0.2; anything but a finite positive
// number is an error (0 on failure).
double ParseScale() {
  const char* env = std::getenv("CAUSUMX_BENCH_SCALE");
  if (env == nullptr) return 0.2;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v <= 0) {
    return 0;
  }
  return v;
}

// {"scale": s, "<section>": {"<table>": [[header...], [row...]...]}...}
// for every section that recorded something, one row per line so a
// moved figure cell diffs as one line.
bool WriteJson(const std::string& path, double scale,
               const std::vector<std::pair<const char*, Section>>& ran) {
  auto quote = [](const std::string& s) {
    return "\"" + JsonEscapeString(s) + "\"";
  };
  std::string doc = "{\n  \"scale\": " + JsonNumberToken(scale, 6);
  for (const auto& [name, section] : ran) {
    if (section.recorded().empty()) continue;
    doc += ",\n  " + quote(name) + ": {";
    const char* table_sep = "\n    ";
    for (const auto& [title, rows] : section.recorded()) {
      doc += table_sep + quote(title) + ": [";
      const char* row_sep = "\n      ";
      for (const auto& row : rows) {
        JsonWriter w;
        w.BeginArray();
        for (const std::string& cell : row) w.String(cell);
        doc += row_sep + w.EndArray().str();
        row_sep = ",\n      ";
      }
      doc += "\n    ]";
      table_sep = ",\n    ";
    }
    doc += "\n  }";
  }
  std::ofstream out(path);
  out << doc << "\n}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<bool> selected(std::size(kSections), false);
  bool any_selected = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      PrintSections(stdout);
      return 0;
    }
    if (arg == "--json") {
      if (i + 1 >= argc) return Usage("--json needs a file name");
      json_path = argv[++i];
      continue;
    }
    size_t k = 0;
    while (k < std::size(kSections) && arg != kSections[k].name) ++k;
    if (k == std::size(kSections)) {
      return Usage("unknown section '" + arg + "'");
    }
    selected[k] = any_selected = true;
  }
  const double scale = ParseScale();
  if (scale == 0) {
    std::fprintf(stderr,
                 "causumx_bench: CAUSUMX_BENCH_SCALE must be a positive "
                 "number\n");
    return 2;
  }

  std::vector<std::pair<const char*, Section>> ran;
  std::vector<double> seconds;
  for (size_t k = 0; k < std::size(kSections); ++k) {
    if (any_selected && !selected[k]) continue;
    Section& s = ran.emplace_back(kSections[k].name, Section(scale)).second;
    Timer timer;
    try {
      kSections[k].run(s);
    } catch (const std::exception& e) {
      s.Fail(std::string("exception: ") + e.what());
    }
    seconds.push_back(timer.Seconds());
    std::fflush(stdout);
  }

  bool ok = true;
  std::printf("\n%-18s %6s %9s\n", "section", "result", "seconds");
  for (size_t i = 0; i < ran.size(); ++i) {
    ok = ok && ran[i].second.ok();
    std::printf("%-18s %6s %8.1fs\n", ran[i].first,
                ran[i].second.ok() ? "PASS" : "FAIL", seconds[i]);
  }
  if (!json_path.empty()) {
    if (!WriteJson(json_path, scale, ran)) {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  std::printf("\n%s\n", ok ? "PASS" : "FAIL");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
