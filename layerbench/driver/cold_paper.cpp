// cold-paper: the CLI path with one query in flight. Every query is a
// RunCauSumX call with a fresh engine and estimator context and the
// default pool of nproc threads, cycling through the default query of
// the five paper datasets. Nothing is served warm, so phase 2 (CATE fill
// and solve on memo misses, engine segment builds) does nearly all the
// work; there is no HTTP or service layer in the way.

#include <memory>
#include <tuple>

#include "bench.h"
#include "causal/dag_io.h"
#include "engine/eval_engine.h"
#include "probes.h"
#include "util/json.h"

namespace layerbench {

namespace {

struct Params {
  double scale;
  size_t setup_reps;
};

Params ParamsFor(const RunArgs& args) {
  if (args.smoke) return {0.02, 2};
  return {0.2, 3};
}

struct Input {
  GeneratedDataset ds;
  ExplainSpec spec;
  causumx::CausalDag dag;
};

// Generates the datasets and writes each one's DAG file, which the
// query then reads back as the CLI's --dag does.
std::vector<Input> SetUp(const RunArgs& args, double scale,
                         const std::string& dir) {
  std::vector<Input> inputs;
  for (const std::string& name : PaperDatasets()) {
    // German runs at its full 1000 rows, as in the paper's phase
    // breakdown (bench_phase_breakdown does the same).
    Input in{MakePaperDataset(name, name == "German" ? 1.0 : scale, args.seed),
             {}, {}};
    const std::string dag_path = dir + "/" + name + ".dag";
    WriteDagFile(in.ds, dag_path);
    in.spec = DefaultSpec(in.ds, name, dag_path);
    in.dag = causumx::ReadDagFile(dag_path);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

CauSumXConfig CliConfig(const Input& in) {
  CauSumXConfig config = in.spec.ToConfig();
  config.num_threads = 0;  // the CLI default: a pool of nproc threads
  return config;
}

CauSumXResult RunCli(const Input& in) {
  return causumx::RunCauSumX(in.ds.table, in.spec.query, in.dag,
                             CliConfig(in));
}

// Per-dataset figures of a traced phase, for the attribution note.
struct DatasetTrace {
  std::vector<double> latency_ms;
  CounterSums counters;
  MiningSamples mining;
  double view_ms = 0;
  ProbeSamples probes;
};

}  // namespace

Outcome RunColdPaper(const RunArgs& args) {
  const Params p = ParamsFor(args);
  const std::string dir = MakeScratchDir(args, "cold");
  Outcome out;
  Checker checker;
  Golden golden;
  golden.Load(args.golden_path, "cold-paper", args.seed == 0 && !args.smoke);

  // Reference answers through the same CLI call, outside set-up and the
  // timed phase.
  const double ref_begin = NowMs();
  std::vector<Expected> expected;
  for (const Input& in : SetUp(args, p.scale, dir)) {
    const std::string digest = SummaryDigest(RunCli(in), in.spec.query);
    out.digests[in.spec.key] = digest;
    expected.push_back({digest, golden.Get(in.spec.key)});
  }
  if (args.tamper) expected[0].reference = Digest("tampered");
  const double ref_ms = NowMs() - ref_begin;

  std::vector<double> setups;
  std::vector<Input> inputs;
  for (size_t rep = 0; rep < p.setup_reps; ++rep) {
    inputs.clear();
    // The first set-up counts from process start.
    const double begin = rep == 0 ? 0.0 : NowMs();
    inputs = SetUp(args, p.scale, dir);
    setups.push_back((NowMs() - begin - (rep == 0 ? ref_ms : 0.0)) / 1e3);
  }

  SpanLog spans;
  std::vector<DatasetTrace> per_dataset(inputs.size());
  CounterSums counters;
  MiningSamples mining;
  size_t op = 0;
  // As many whole cycles over the five datasets as come closest to
  // `seconds`, so every run weighs the datasets equally.
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<double>* latencies) {
    const double begin = NowMs();
    size_t cycles = 0;
    do {
      for (size_t i = 0; i < inputs.size(); ++i) {
        const double t0 = NowMs();
        const CauSumXResult r = RunCli(inputs[i]);
        const double t1 = NowMs();
        latencies->push_back(t1 - t0);
        checker.Record(
            expected[i].Matches(SummaryDigest(r, inputs[i].spec.query)),
            "cold-paper " + inputs[i].spec.key + " answer");
        if (!traced) continue;
        // Phase spans laid back to back, ending with the call; the gap
        // before them (view, attribute partition, engine set-up) stays
        // in the core span's self time.
        const std::string request = "op-" + std::to_string(++op);
        const int64_t root =
            spans.Add("core.run_causumx", "core", t0, t1, 0, request);
        double end = t1;
        for (const auto& [phase, name, layer] :
             {std::tuple{"selection", "lp.selection", "lp"},
              std::tuple{"treatment", "mining.treatment", "mining"},
              std::tuple{"grouping", "mining.grouping", "mining"}}) {
          const double d = r.timings.Get(phase) * 1e3;
          spans.Add(name, layer, end - d, end, root, request);
          end -= d;
        }
        // A fresh engine and context per query: the counters are this
        // query's own.
        DatasetTrace& dt = per_dataset[i];
        dt.latency_ms.push_back(t1 - t0);
        dt.counters.AddExplain({}, r.cache_stats);
        dt.mining.Add(r);
        counters.AddExplain({}, r.cache_stats);
        mining.Add(r);
      }
    } while (!PhaseDone(NowMs() - begin, ++cycles, seconds));
    return (NowMs() - begin) / 1e3;
  };

  if (!args.trace) {
    std::vector<double> latencies;
    const double phase_s = run_phase(args.seconds, false, &latencies);
    out.metrics.push_back(SetupMetric(setups));
    AddExplainMetrics(latencies, phase_s, &out);
    out.meta.emplace_back("explains", std::to_string(latencies.size()));
  } else {
    std::vector<double> untraced, traced;
    run_phase(args.seconds / 2, false, &untraced);
    run_phase(args.seconds / 2, true, &traced);
    AddOverheadMetric(untraced, traced, &out);
    AddSelfTimeMetrics(spans.Snapshot(), traced.size(), &out);

    // Probes: the view per query over the CLI's shard plan, and the
    // estimator and engine per-call costs on each dataset.
    auto pool = std::make_shared<causumx::ThreadPool>(
        causumx::ThreadPool::DefaultThreads());
    std::vector<double> view_ms;
    ProbeSamples probes;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      auto table = std::make_shared<const causumx::Table>(in.ds.table.Clone());
      causumx::EvalEngineOptions eopt;
      eopt.num_shards = 0;
      eopt.pool = pool;
      const causumx::EvalEngine plan_engine(table, eopt);
      DatasetTrace& dt = per_dataset[i];
      std::vector<double> v;
      for (int rep = 0; rep < 3; ++rep) {
        v.push_back(ProbeViewMs(*table, in.spec.query, plan_engine.plan(),
                                pool.get()));
      }
      dt.view_ms = Median(v);
      view_ms.insert(view_ms.end(), v.begin(), v.end());
      ProbeEstimatorAndEngine(table, in.spec.query, in.dag, CliConfig(in),
                              pool, &dt.probes);
      for (auto [dst, src] :
           {std::pair{&probes.cate_miss_us, &dt.probes.cate_miss_us},
            std::pair{&probes.cate_hit_us, &dt.probes.cate_hit_us},
            std::pair{&probes.atom_build_us, &dt.probes.atom_build_us},
            std::pair{&probes.conj_eval_us, &dt.probes.conj_eval_us}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
    }
    out.metrics.push_back({"core.view_ms.p50", Median(view_ms), "ms"});
    AddCounterMetrics(counters, &out);
    AddMiningMetrics(mining, &out);
    AddProbeMetrics(probes, &out);

    // Per-dataset breakdown for the attribution note.
    causumx::JsonWriter w;
    w.BeginObject();
    for (size_t i = 0; i < inputs.size(); ++i) {
      const DatasetTrace& dt = per_dataset[i];
      const double n = dt.counters.explains > 0
                           ? static_cast<double>(dt.counters.explains)
                           : 1.0;
      w.Key(inputs[i].spec.key).BeginObject()
          .Key("rows").Uint(inputs[i].ds.table.NumRows())
          .Key("explain_ms_p50").Double(Median(dt.latency_ms))
          .Key("view_ms").Double(dt.view_ms)
          .Key("grouping_ms_p50").Double(Median(dt.mining.grouping_ms))
          .Key("treatment_ms_p50").Double(Median(dt.mining.treatment_ms))
          .Key("selection_ms_p50").Double(Median(dt.mining.selection_ms))
          .Key("memo_hits").Double(dt.counters.memo_hits / n)
          .Key("memo_misses").Double(dt.counters.memo_misses / n)
          .Key("segments_materialized")
          .Double(dt.counters.segments_materialized / n)
          .Key("cate_miss_us_p50").Double(Median(dt.probes.cate_miss_us))
          .Key("cate_hit_us_p50").Double(Median(dt.probes.cate_hit_us))
          .Key("atom_build_us_p50").Double(Median(dt.probes.atom_build_us))
          .EndObject();
    }
    w.EndObject();
    out.meta.emplace_back("per_dataset", w.str());
    out.meta.emplace_back("explains", std::to_string(traced.size()));
    spans.WriteJson(args.out_dir + "/trace-cold-paper-seed" +
                    std::to_string(args.seed) + ".json");
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.meta.emplace_back("scale", std::to_string(p.scale));
  RemoveTree(dir);
  return out;
}

}  // namespace layerbench
