// layerbench — one driver for the layer-attributed benchmark.
//
//   layerbench --workload cold-paper|warm-mix|append-stream --seed N
//              --seconds S --trace 0|1 --out DIR [--golden FILE]
//              [--smoke] [--tamper] [--write-golden FILE]
//
// Prints a {"meta": ...} line and, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones of the traced run (a metric a workload cannot
// measure reads 0 and is listed under meta.not_measured). Normally
// started through run.py, which builds this binary first.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/cpu_features.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace layerbench {
namespace {

// The per-layer metrics of a traced run, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"server.handler_ms.p50", "ms"},
      {"server.transport_ms.p50", "ms"},
      {"server.rest_overhead_ms.p50", "ms"},
      {"server.rejected", "count"},
      {"server.parse_errors", "count"},
      {"service.explain_ms.p50", "ms"},
      {"service.append_extend_ms.p50", "ms"},
      {"service.cache_bytes", "bytes"},
      {"service.budget_enforcements", "count"},
      {"core.view_ms.p50", "ms"},
      {"mining.grouping_ms.p50", "ms"},
      {"mining.treatment_ms.p50", "ms"},
      {"mining.patterns_evaluated", "count"},
      {"mining.grouping_candidates", "count"},
      {"causal.memo_hits", "count"},
      {"causal.memo_misses", "count"},
      {"causal.memo_hit_ratio", "ratio"},
      {"causal.memo_bytes", "bytes"},
      {"causal.memo_migrated", "count"},
      {"causal.cate_miss_us.p50", "us"},
      {"causal.cate_hit_us.p50", "us"},
      {"engine.segments_materialized", "count"},
      {"engine.bitset_hits", "count"},
      {"engine.pattern_evals", "count"},
      {"engine.bitset_bytes", "bytes"},
      {"engine.bitsets_extended", "count"},
      {"engine.bitsets_retracted", "count"},
      {"engine.atom_build_us.p50", "us"},
      {"engine.conj_eval_us.p50", "us"},
      {"lp.selection_ms.p50", "ms"},
      {"lp.candidates", "count"},
      {"stream.boundary_ms.p50", "ms"},
      {"stream.boundary_ms.p90", "ms"},
      {"stream.windows_evaluated", "count"},
      {"stream.events", "count"},
      {"stream.cache_bytes", "bytes"},
      {"storage.snapshot_ms.p50", "ms"},
      {"storage.snapshot_bytes", "bytes"},
      {"storage.restore_ms", "ms"},
      {"dataset.clone_append_ms.p50", "ms"},
      {"append_ms.p50", "ms"},
      {"append_ms.p90", "ms"},
      {"client.self_ms", "ms"},
      {"server.self_ms", "ms"},
      {"service.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"mining.self_ms", "ms"},
      {"lp.self_ms", "ms"},
      {"stream.self_ms", "ms"},
      {"storage.self_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"explain_ms.p50", "ms"},
      {"explain_ms.p90", "ms"},
      {"explain_qps", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench --workload "
               "cold-paper|warm-mix|append-stream --seed N --seconds S "
               "--trace 0|1 --out DIR [--golden FILE] [--smoke] [--tamper] "
               "[--write-golden FILE]\n",
               why);
  return 2;
}

// Orders the workload's metrics as the expected list, fills the ones it
// could not measure with 0, and rejects any name outside the list.
bool Normalize(const std::vector<std::pair<std::string, std::string>>& want,
               Outcome* out, std::vector<std::string>* not_measured) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : want) {
    const auto it =
        std::find_if(out->metrics.begin(), out->metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it == out->metrics.end()) {
      ordered.push_back({name, 0.0, unit});
      not_measured->push_back(name);
    } else if (it->unit != unit) {
      std::fprintf(stderr, "layerbench: metric %s has unit %s, want %s\n",
                   name.c_str(), it->unit.c_str(), unit.c_str());
      return false;
    } else {
      ordered.push_back(*it);
    }
  }
  for (const Metric& m : out->metrics) {
    if (std::none_of(want.begin(), want.end(),
                     [&](const auto& w) { return w.first == m.name; })) {
      std::fprintf(stderr, "layerbench: unexpected metric %s\n",
                   m.name.c_str());
      return false;
    }
  }
  out->metrics = std::move(ordered);
  return true;
}

int Main(int argc, char** argv) {
  NowMs();  // anchor the process clock
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::stoull(next());
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::stod(next());
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") return Usage("--trace takes 0 or 1");
      args.trace = t == "1";
      have_trace = true;
    } else if (a == "--out") {
      args.out_dir = next();
    } else if (a == "--golden") {
      args.golden_path = next();
    } else if (a == "--write-golden") {
      args.write_golden_path = next();
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--tamper") {
      args.tamper = true;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty() ||
      args.seconds <= 0) {
    return Usage("missing or bad --seed/--seconds/--trace/--out");
  }
  std::filesystem::create_directories(args.out_dir);

  Outcome out;
  if (args.workload == "cold-paper") {
    out = RunColdPaper(args);
  } else if (args.workload == "warm-mix") {
    out = RunWarmMix(args);
  } else if (args.workload == "append-stream") {
    out = RunAppendStream(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  std::vector<std::string> not_measured;
  if (!Normalize(args.trace ? PerLayerMetrics() : EndToEndMetrics(), &out,
                 &not_measured)) {
    return 1;
  }

  if (!args.write_golden_path.empty()) {
    causumx::JsonWriter w;
    w.BeginObject();
    for (const auto& [key, digest] : out.digests) w.Key(key).String(digest);
    w.EndObject();
    std::ofstream(args.write_golden_path) << w.str() << "\n";
  }

  causumx::JsonWriter meta;
  meta.BeginObject()
      .Key("workload").String(args.workload)
      .Key("seed").Uint(args.seed)
      .Key("seconds").Double(args.seconds)
      .Key("trace").Bool(args.trace)
      .Key("smoke").Bool(args.smoke)
      .Key("kernel_tier")
      .String(causumx::KernelTierName(causumx::ActiveKernelTier()))
      .Key("compiler").String(__VERSION__)
      .Key("nproc").Uint(std::thread::hardware_concurrency())
      .Key("pool_threads").Uint(causumx::ThreadPool::DefaultThreads());
  for (const auto& [key, raw] : out.meta) meta.Key(key).Raw(raw);
  meta.Key("not_measured").BeginArray();
  for (const auto& name : not_measured) meta.String(name);
  meta.EndArray().EndObject();
  std::printf("{\"meta\":%s}\n", meta.str().c_str());

  std::string line = "{\"correct\": ";
  line += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  try {
    return layerbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
