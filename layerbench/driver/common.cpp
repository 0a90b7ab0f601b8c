// Shared helpers of the benchmark driver: statistics, spans, datasets,
// requests, answer digests.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "causal/dag_io.h"
#include "core/json_export.h"
#include "datagen/accidents.h"
#include "datagen/adult.h"
#include "datagen/cps.h"
#include "datagen/german.h"
#include "datagen/stackoverflow.h"
#include "util/json.h"

namespace layerbench {

using causumx::JsonValue;
using causumx::JsonWriter;
using causumx::Value;

double NowMs() {
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - anchor)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Checker::Record(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (ok) return;
  // Report the first few failures; the count carries the rest.
  if (failed_.fetch_add(1) < 5) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

int64_t SpanLog::Add(const std::string& name, const std::string& layer,
                     double start_ms, double end_ms, int64_t parent,
                     const std::string& request) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonWriter w;
    w.BeginObject()
        .Key("id").Int(s.id)
        .Key("parent").Int(s.parent)
        .Key("request").String(s.request)
        .Key("name").String(s.name)
        .Key("layer").String(s.layer)
        .Key("start_ms").Double(s.start_ms)
        .Key("end_ms").Double(s.end_ms)
        .EndObject();
    out << "  " << w.str() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> iv;
    for (const Span* c : children[s.id]) {
      const double b = std::max(c->start_ms, s.start_ms);
      const double e = std::min(c->end_ms, s.end_ms);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[s.layer] += std::max(0.0, (s.end_ms - s.start_ms) - covered);
  }
  return self;
}

const std::vector<std::string>& PaperDatasets() {
  static const std::vector<std::string> names = {"German", "Adult", "SO",
                                                 "IMPUS-CPS", "Accidents"};
  return names;
}

GeneratedDataset MakePaperDataset(const std::string& name, double scale,
                                  uint64_t seed) {
  auto scaled = [scale](size_t rows) {
    return std::max<size_t>(100, static_cast<size_t>(rows * scale));
  };
  if (name == "German") {
    causumx::GermanOptions opt;
    opt.num_rows = scaled(opt.num_rows);
    opt.seed += seed;
    return causumx::MakeGermanDataset(opt);
  }
  if (name == "Adult") {
    causumx::AdultOptions opt;
    opt.num_rows = scaled(opt.num_rows);
    opt.seed += seed;
    return causumx::MakeAdultDataset(opt);
  }
  if (name == "SO") {
    causumx::StackOverflowOptions opt;
    opt.num_rows = scaled(opt.num_rows);
    opt.seed += seed;
    return causumx::MakeStackOverflowDataset(opt);
  }
  if (name == "IMPUS-CPS") {
    causumx::CpsOptions opt;
    opt.num_rows = scaled(opt.num_rows);
    opt.seed += seed;
    return causumx::MakeCpsDataset(opt);
  }
  if (name == "Accidents") {
    causumx::AccidentsOptions opt;
    opt.num_rows = scaled(opt.num_rows);
    opt.seed += seed;
    return causumx::MakeAccidentsDataset(opt);
  }
  throw std::out_of_range("unknown paper dataset: " + name);
}

std::string ExplainSpec::ToJson(const std::string& id) const {
  JsonWriter w;
  w.BeginObject().Key("id").String(id).Key("table").String(table);
  w.Key("group_by").BeginArray();
  for (const auto& a : query.group_by) w.String(a);
  w.EndArray()
      .Key("avg").String(query.avg_attribute)
      .Key("dag").String(dag_path)
      .Key("k").Double(k)
      .Key("theta").Double(theta)
      .Key("alpha").Double(alpha)
      .EndObject();
  return w.str();
}

CauSumXConfig ExplainSpec::ToConfig() const {
  // The fields the request carries, mapped as the batch executor maps
  // them; every other knob keeps its default.
  CauSumXConfig config;
  config.k = static_cast<size_t>(k);
  config.theta = theta;
  config.treatment.alpha = alpha;
  return config;
}

ExplainSpec DefaultSpec(const GeneratedDataset& ds, const std::string& table,
                        const std::string& dag_path) {
  ExplainSpec spec;
  spec.key = ds.name;
  spec.table = table;
  spec.query = ds.default_query;
  spec.dag_path = dag_path;
  if (ds.name == "German") {
    spec.alpha = 0.1;
    spec.theta = 0.5;
  }
  return spec;
}

void WriteDagFile(const GeneratedDataset& ds, const std::string& path) {
  std::ofstream out(path);
  out << causumx::DagToText(ds.dag);
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::string Digest(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) h = (h ^ c) * 0x100000001B3ULL;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string SummaryDigest(const CauSumXResult& result,
                          const GroupByAvgQuery& query) {
  return Digest(causumx::SummaryToJson(result.summary, &query));
}

std::string ExtractSummary(const std::string& body) {
  // The summary is the final member of an explain response.
  const std::string marker = "\"summary\":";
  const size_t pos = body.find(marker);
  if (pos == std::string::npos || body.empty() || body.back() != '}') {
    return "";
  }
  return body.substr(pos + marker.size(),
                     body.size() - pos - marker.size() - 1);
}

double ExtractNumber(const std::string& body, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const size_t pos = body.find(marker);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + pos + marker.size(), nullptr);
}

std::string ExtractId(const std::string& body) {
  const std::string marker = "\"id\":\"";
  const size_t pos = body.find(marker);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + marker.size();
  const size_t end = body.find('"', begin);
  return end == std::string::npos ? "" : body.substr(begin, end - begin);
}

std::string RowsJson(const std::vector<std::vector<Value>>& rows,
                     size_t begin, size_t end) {
  std::string out = "[";
  char buf[40];
  for (size_t r = begin; r < end; ++r) {
    out += r == begin ? "[" : ",[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ",";
      const Value& v = rows[r][c];
      if (v.is_null()) {
        out += "null";
      } else if (v.is_int()) {
        out += std::to_string(v.AsInt());
      } else if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        out += buf;
      } else {
        out += "\"" + causumx::JsonEscape(v.AsString()) + "\"";
      }
    }
    out += "]";
  }
  return out + "]";
}

void Golden::Load(const std::string& path, const std::string& workload,
                  bool active) {
  active_ = false;
  digests_.clear();
  if (!active || path.empty()) return;
  std::ifstream in(path);
  if (!in) return;
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue root = JsonValue::Parse(ss.str());
  const JsonValue* section = root.Find(workload);
  if (section == nullptr) return;
  for (const auto& [key, value] : section->AsObject()) {
    digests_[key] = value.AsString();
  }
  active_ = true;
}

std::string Golden::Get(const std::string& key) const {
  if (!active_) return "";
  const auto it = digests_.find(key);
  // An active golden set with the key missing is itself a mismatch.
  return it == digests_.end() ? "missing" : it->second;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string MakeScratchDir(const RunArgs& args, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.out_dir) /
                       ("work-" + args.workload + "-" + tag + "-" +
                        std::to_string(static_cast<long>(getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Metric SetupMetric(const std::vector<double>& setup_seconds) {
  return {"setup_s", Median(setup_seconds), "s"};
}

void AddExplainMetrics(const std::vector<double>& latencies_ms,
                       double phase_s, Outcome* out) {
  out->metrics.push_back({"explain_ms.p50", Quantile(latencies_ms, 0.5), "ms"});
  out->metrics.push_back({"explain_ms.p90", Quantile(latencies_ms, 0.9), "ms"});
  out->metrics.push_back(
      {"explain_qps",
       phase_s > 0 ? static_cast<double>(latencies_ms.size()) / phase_s : 0.0,
       "1/s"});
}

void AddSelfTimeMetrics(const std::vector<Span>& spans, size_t ops,
                        Outcome* out) {
  if (ops == 0) return;
  for (const auto& [layer, ms] : SelfTimeByLayer(spans)) {
    out->metrics.push_back(
        {layer + ".self_ms", ms / static_cast<double>(ops), "ms"});
  }
}

void CounterSums::AddPhase(const causumx::EngineCacheStats& before,
                           const causumx::EngineCacheStats& after, size_t n) {
  explains += n;
  auto diff = [](uint64_t b, uint64_t a) {
    return a >= b ? static_cast<double>(a - b) : 0.0;
  };
  const double resident = static_cast<double>(n);
  memo_hits += diff(before.estimator.memo_hits, after.estimator.memo_hits);
  memo_misses +=
      diff(before.estimator.memo_misses, after.estimator.memo_misses);
  memo_bytes += resident * static_cast<double>(after.estimator.memo_bytes);
  segments_materialized +=
      diff(before.eval.bitsets_materialized, after.eval.bitsets_materialized);
  bitset_hits += diff(before.eval.bitset_hits, after.eval.bitset_hits);
  pattern_evals += diff(before.eval.pattern_evals, after.eval.pattern_evals);
  bitset_bytes += resident * static_cast<double>(after.eval.bitset_bytes);
}

void AddCounterMetrics(const CounterSums& s, Outcome* out) {
  const double n = s.explains > 0 ? static_cast<double>(s.explains) : 1.0;
  const double lookups = s.memo_hits + s.memo_misses;
  out->metrics.push_back({"causal.memo_hits", s.memo_hits / n, "count"});
  out->metrics.push_back({"causal.memo_misses", s.memo_misses / n, "count"});
  out->metrics.push_back({"causal.memo_hit_ratio",
                          lookups > 0 ? s.memo_hits / lookups : 0.0, "ratio"});
  out->metrics.push_back({"causal.memo_bytes", s.memo_bytes / n, "bytes"});
  out->metrics.push_back({"causal.memo_migrated", s.memo_migrated / n, "count"});
  out->metrics.push_back(
      {"engine.segments_materialized", s.segments_materialized / n, "count"});
  out->metrics.push_back({"engine.bitset_hits", s.bitset_hits / n, "count"});
  out->metrics.push_back({"engine.pattern_evals", s.pattern_evals / n, "count"});
  out->metrics.push_back({"engine.bitset_bytes", s.bitset_bytes / n, "bytes"});
  out->metrics.push_back(
      {"engine.bitsets_extended", s.bitsets_extended / n, "count"});
  out->metrics.push_back(
      {"engine.bitsets_retracted", s.bitsets_retracted, "count"});
}

void MiningSamples::Add(const CauSumXResult& r) {
  grouping_ms.push_back(r.timings.Get("grouping") * 1e3);
  treatment_ms.push_back(r.timings.Get("treatment") * 1e3);
  selection_ms.push_back(r.timings.Get("selection") * 1e3);
  patterns_evaluated += static_cast<double>(r.treatment_patterns_evaluated);
  grouping_candidates += static_cast<double>(r.num_grouping_candidates);
  candidates += static_cast<double>(r.num_candidates_with_treatment);
}

void AddMiningMetrics(const MiningSamples& s, Outcome* out) {
  const double n = s.grouping_ms.empty()
                       ? 1.0
                       : static_cast<double>(s.grouping_ms.size());
  out->metrics.push_back({"mining.grouping_ms.p50", Median(s.grouping_ms), "ms"});
  out->metrics.push_back(
      {"mining.treatment_ms.p50", Median(s.treatment_ms), "ms"});
  out->metrics.push_back(
      {"mining.patterns_evaluated", s.patterns_evaluated / n, "count"});
  out->metrics.push_back(
      {"mining.grouping_candidates", s.grouping_candidates / n, "count"});
  out->metrics.push_back({"lp.selection_ms.p50", Median(s.selection_ms), "ms"});
  out->metrics.push_back({"lp.candidates", s.candidates / n, "count"});
}

void AddOverheadMetric(const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms, Outcome* out) {
  const double base = Median(untraced_ms);
  out->metrics.push_back(
      {"trace.overhead_pct",
       base > 0 ? (Median(traced_ms) / base - 1.0) * 100.0 : 0.0, "%"});
}

}  // namespace layerbench
