#include "bench/harness.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace causumx::bench {

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

void Section::Banner(const char* id, const char* description) const {
  std::printf("\n==================================================\n");
  std::printf("%s — %s\n", id, description);
  std::printf("==================================================\n");
}

void Section::Table(std::string title, std::vector<Col> cols) {
  cols_ = std::move(cols);
  recorded_.emplace_back(std::move(title),
                         std::vector<std::vector<std::string>>{});
  std::vector<std::string> header;
  for (const Col& c : cols_) header.push_back(c.header);
  Row(header);
}

void Section::Row(const std::vector<std::string>& cells) {
  if (recorded_.empty() || cells.size() != cols_.size()) {
    throw std::logic_error("bench table row does not match its columns");
  }
  std::vector<std::string> kept;
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%*s" : " %*s", cols_[i].width, cells[i].c_str());
    if (cols_[i].recorded) kept.push_back(cells[i]);
  }
  std::printf("\n");
  recorded_.back().second.push_back(std::move(kept));
}

void Section::Text(std::string title, const std::string& text) {
  std::printf("%s", text.c_str());
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back({line});
  recorded_.emplace_back(std::move(title), std::move(lines));
}

void Section::ExpectIdentical(const std::string& got, const std::string& want,
                              const std::string& what) {
  if (got != want) Fail(what + " differs from the reference");
}

void Section::ExpectBestOf(const char* what, const std::vector<double>& slow,
                           const std::vector<double>& fast, double bar) {
  ExpectSpeedup(what, Best(slow) / Best(fast), bar,
                Fmt("best-of-%zu / best-of-%zu", slow.size(), fast.size()));
}

void Section::ExpectMedianOfPairs(const char* what,
                                  const std::vector<double>& slow,
                                  const std::vector<double>& fast,
                                  double bar) {
  std::vector<double> ratios;
  for (size_t i = 0; i < slow.size() && i < fast.size(); ++i) {
    ratios.push_back(slow[i] / fast[i]);
  }
  std::sort(ratios.begin(), ratios.end());
  ExpectSpeedup(what, ratios.empty() ? 0.0 : ratios[ratios.size() / 2], bar,
                Fmt("median of %zu pairs", ratios.size()));
}

void Section::ExpectSpeedup(const char* what, double speedup, double bar,
                            const std::string& statistic) {
  std::printf("%s: %.2fx (%s), bar %.2fx\n", what, speedup,
              statistic.c_str(), bar);
  if (speedup < bar) {
    Fail(Fmt("%s %.2fx below the %.2fx bar", what, speedup, bar));
  }
}

void Section::Fail(const std::string& message) {
  std::printf("FAIL: %s\n", message.c_str());
  ok_ = false;
}

double Best(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0
                         : *std::min_element(seconds.begin(), seconds.end());
}

std::string TrailingSummary(const std::string& json) {
  const std::string marker = "\"summary\":";
  const size_t at = json.find(marker);
  if (at == std::string::npos || json.back() != '}') return "";
  return json.substr(at + marker.size(),
                     json.size() - at - marker.size() - 1);
}

CauSumXConfig PaperDefaultConfig() {
  CauSumXConfig config;
  config.k = 5;
  config.theta = 0.75;
  config.apriori_support = 0.1;
  return config;
}

CauSumXConfig ConfigFor(const GeneratedDataset& ds, CauSumXConfig config) {
  if (ds.name == "German") {
    config.estimator.min_group_size = 5;
    config.treatment.alpha = 0.1;
    config.theta = 0.5;
  }
  if (!ds.grouping_attribute_hint.empty()) {
    config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
    config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
    config.grouping.include_per_group_patterns = false;
  }
  return config;
}

CausalDag WithGroupingConfounders(const GeneratedDataset& ds) {
  CausalDag dag = ds.dag;
  for (const std::string& g : ds.grouping_attribute_hint) {
    dag.AddNode(g);
    dag.AddEdge(g, "O");
    for (const std::string& t : ds.treatment_attribute_hint) {
      dag.AddEdge(g, t);
    }
  }
  return dag;
}

}  // namespace causumx::bench
