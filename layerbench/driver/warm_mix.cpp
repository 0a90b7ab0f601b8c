// warm-mix: an in-process HttpServer + MakeRestHandler over one
// ExplanationService that serves the five paper datasets. Set-up issues
// every request once; the timed phase then has two keep-alive clients
// replaying the 30 requests (each dataset's default query x k in
// {3,5,7} x theta in {0.5,0.75}) in a seeded order, in a closed loop.
// Every CATE is a memo hit by then, so what remains is HTTP/REST, service
// resolve, the view recompute, lattice bookkeeping with memo-hit
// lookups, and the phase-3 LP.

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "causal/dag_io.h"
#include "core/json_export.h"
#include "probes.h"
#include "server_stack.h"
#include "util/json.h"
#include "util/rng.h"

namespace layerbench {

namespace {

struct Params {
  double scale;
  size_t clients;
  size_t setup_reps;
};

Params ParamsFor(const RunArgs& args) {
  if (args.smoke) return {0.02, 2, 1};
  return {0.05, 2, 3};
}

struct Dataset {
  GeneratedDataset ds;
  std::string dag_path;
  causumx::CausalDag dag;
};

// The datasets come from the generators' default seeds on every run; the
// run's seed orders the requests. At scale 0.05 the replicas are small
// (SO has 1904 rows), and with seeded data the warm cost of the dataset
// the median lands on moved the explain p50 by 23-29% across seeds.
std::vector<Dataset> Generate(double scale, const std::string& dir) {
  std::vector<Dataset> out;
  for (const std::string& name : PaperDatasets()) {
    Dataset d{MakePaperDataset(name, scale, 0), dir + "/" + name + ".dag", {}};
    WriteDagFile(d.ds, d.dag_path);
    d.dag = causumx::ReadDagFile(d.dag_path);
    out.push_back(std::move(d));
  }
  return out;
}

// The 30 requests, grouped by dataset (index / 6 = dataset).
std::vector<ExplainSpec> MakeSpecs(const std::vector<Dataset>& data) {
  std::vector<ExplainSpec> specs;
  for (const Dataset& d : data) {
    for (double k : {3.0, 5.0, 7.0}) {
      for (double theta : {0.5, 0.75}) {
        ExplainSpec s = DefaultSpec(d.ds, d.ds.name, d.dag_path);
        s.k = k;
        s.theta = theta;
        s.key = d.ds.name + "/k" + std::to_string(static_cast<int>(k)) +
                "/theta" + (theta == 0.5 ? "0.5" : "0.75");
        specs.push_back(s);
      }
    }
  }
  return specs;
}

// Reference answers from the CLI path. RunCauSumX is MineExplanation-
// Candidates followed by SelectExplanations, and phase 3 alone depends on
// k and theta, so the six variants of a dataset share one mining run.
std::vector<std::string> ReferenceDigests(const std::vector<Dataset>& data,
                                          const std::vector<ExplainSpec>& specs) {
  std::vector<std::string> digests;
  for (size_t d = 0; d < data.size(); ++d) {
    CauSumXConfig config = specs[d * 6].ToConfig();
    config.num_threads = 0;
    const causumx::CandidateMiningResult mined =
        causumx::MineExplanationCandidates(data[d].ds.table,
                                           specs[d * 6].query, data[d].dag,
                                           config);
    for (size_t v = 0; v < 6; ++v) {
      const ExplainSpec& spec = specs[d * 6 + v];
      causumx::ExplanationSummary summary;
      if (mined.view.NumGroups() > 0) {
        summary = causumx::SelectExplanations(
            mined.candidates, mined.view.NumGroups(), spec.ToConfig());
      }
      digests.push_back(Digest(causumx::SummaryToJson(summary, &spec.query)));
    }
  }
  return digests;
}

std::unique_ptr<ServerStack> SetUpStack(const std::vector<Dataset>& data) {
  auto stack = std::make_unique<ServerStack>(causumx::ServiceOptions{}, false);
  for (const Dataset& d : data) {
    stack->service().RegisterTable(d.ds.name, d.ds.table.Clone());
  }
  return stack;
}

// Seeded Fisher-Yates over the request indices.
std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  causumx::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.NextU64() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

// Engine and estimator counters summed over data[first, last).
causumx::EngineCacheStats SumStats(causumx::ExplanationService& service,
                                   const std::vector<Dataset>& data,
                                   size_t first, size_t last) {
  causumx::EngineCacheStats total;
  for (size_t i = first; i < last; ++i) {
    const Dataset& d = data[i];
    const causumx::EvalEngineStats e = service.Engine(d.ds.name)->Stats();
    const causumx::EstimatorCacheStats m =
        service.Context(d.ds.name, d.dag, causumx::EstimatorOptions{})->Stats();
    total.eval.bitsets_materialized += e.bitsets_materialized;
    total.eval.bitset_hits += e.bitset_hits;
    total.eval.pattern_evals += e.pattern_evals;
    total.eval.bitset_bytes += e.bitset_bytes;
    total.estimator.memo_hits += m.memo_hits;
    total.estimator.memo_misses += m.memo_misses;
    total.estimator.memo_bytes += m.memo_bytes;
  }
  return total;
}

}  // namespace

Outcome RunWarmMix(const RunArgs& args) {
  const Params p = ParamsFor(args);
  const std::string dir = MakeScratchDir(args, "warm");
  Outcome out;
  Checker checker;
  Golden golden;
  golden.Load(args.golden_path, "warm-mix", !args.smoke);

  const double ref_begin = NowMs();
  std::vector<Expected> expected;
  {
    const std::vector<Dataset> data = Generate(p.scale, dir);
    const std::vector<ExplainSpec> specs = MakeSpecs(data);
    const std::vector<std::string> refs = ReferenceDigests(data, specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      out.digests[specs[i].key] = refs[i];
      expected.push_back({refs[i], golden.Get(specs[i].key)});
    }
  }
  if (args.tamper) expected[0].reference = Digest("tampered");
  const double ref_ms = NowMs() - ref_begin;

  // Set-up: generation, registration, server start, and every request
  // once. Repeated; the last stack serves the timed phase.
  std::vector<double> setups;
  std::vector<Dataset> data;
  std::vector<ExplainSpec> specs;
  std::unique_ptr<ServerStack> stack;
  for (size_t rep = 0; rep < p.setup_reps; ++rep) {
    stack.reset();
    data.clear();
    const double begin = rep == 0 ? 0.0 : NowMs();
    data = Generate(p.scale, dir);
    specs = MakeSpecs(data);
    stack = SetUpStack(data);
    // Warm-up: one connection per dataset (at most nproc at a time), each
    // sending that dataset's six requests in order.
    const size_t warmers =
        std::min(data.size(), causumx::ThreadPool::DefaultThreads());
    std::vector<std::thread> threads;
    for (size_t w = 0; w < warmers; ++w) {
      threads.emplace_back([&, w] {
        causumx::HttpClient client("127.0.0.1", stack->port());
        for (size_t d = w; d < data.size(); d += warmers) {
          for (size_t i = d * 6; i < d * 6 + 6; ++i) {
            const HttpOp op =
                Call(client, "POST", "/v1/explain", specs[i].ToJson("warmup"));
            checker.Record(op.ok() && expected[i].Matches(
                                          Digest(ExtractSummary(op.body))),
                           "warm-mix set-up " + specs[i].key);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    setups.push_back((NowMs() - begin - (rep == 0 ? ref_ms : 0.0)) / 1e3);
  }

  const std::vector<size_t> order = SeededOrder(specs.size(), args.seed);
  SpanLog spans;
  std::mutex mu;  // guards the per-phase samples below
  std::vector<double> handler_ms, transport_ms, rest_ms;

  // Each client runs as many whole rounds of the 30 requests as come
  // closest to `seconds`.
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<double>* latencies) {
    stack->set_tracing(traced);
    const double begin = NowMs();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < p.clients; ++c) {
      clients.emplace_back([&, c] {
        causumx::HttpClient client("127.0.0.1", stack->port());
        std::vector<double> lat, h, t, r;
        size_t n = 0, rounds = 0;
        do {
          for (size_t j = 0; j < order.size(); ++j) {
            // Clients start half a round apart.
            const size_t i =
                order[(j + c * order.size() / p.clients) % order.size()];
            const std::string id =
                "c" + std::to_string(c) + "-" + std::to_string(++n);
            const HttpOp op =
                Call(client, "POST", "/v1/explain", specs[i].ToJson(id));
            lat.push_back(op.latency_ms());
            checker.Record(op.ok() && expected[i].Matches(
                                          Digest(ExtractSummary(op.body))),
                           "warm-mix " + specs[i].key + " status " +
                               std::to_string(op.status));
            HandlerMarks m;
            if (traced && RecordHttpSpans(&spans, stack.get(), id, false, op,
                                          &m)) {
              const double handler = m.end - m.start;
              h.push_back(handler);
              t.push_back(op.latency_ms() - handler);
              r.push_back(handler - ExtractNumber(op.body, "elapsed_ms"));
            }
          }
        } while (!PhaseDone(NowMs() - begin, ++rounds, seconds));
        std::lock_guard<std::mutex> lock(mu);
        latencies->insert(latencies->end(), lat.begin(), lat.end());
        handler_ms.insert(handler_ms.end(), h.begin(), h.end());
        transport_ms.insert(transport_ms.end(), t.begin(), t.end());
        rest_ms.insert(rest_ms.end(), r.begin(), r.end());
      });
    }
    for (auto& th : clients) th.join();
    stack->set_tracing(false);
    return (NowMs() - begin) / 1e3;
  };

  const causumx::HttpServerCounters c0 = stack->counters();
  if (!args.trace) {
    std::vector<double> latencies;
    const double phase_s = run_phase(args.seconds, false, &latencies);
    out.metrics.push_back(SetupMetric(setups));
    AddExplainMetrics(latencies, phase_s, &out);
    out.meta.emplace_back("explains", std::to_string(latencies.size()));
  } else {
    std::vector<double> untraced, traced;
    run_phase(args.seconds / 2, false, &untraced);
    const causumx::EngineCacheStats before =
        SumStats(stack->service(), data, 0, data.size());
    run_phase(args.seconds / 2, true, &traced);
    const causumx::EngineCacheStats after =
        SumStats(stack->service(), data, 0, data.size());
    const causumx::HttpServerCounters c1 = stack->counters();
    AddOverheadMetric(untraced, traced, &out);
    AddSelfTimeMetrics(spans.Snapshot(), traced.size(), &out);
    out.metrics.push_back({"server.handler_ms.p50", Median(handler_ms), "ms"});
    out.metrics.push_back(
        {"server.transport_ms.p50", Median(transport_ms), "ms"});
    out.metrics.push_back(
        {"server.rest_overhead_ms.p50", Median(rest_ms), "ms"});
    out.metrics.push_back(
        {"server.rejected",
         static_cast<double>(c1.requests_rejected - c0.requests_rejected),
         "count"});
    out.metrics.push_back(
        {"server.parse_errors",
         static_cast<double>(c1.parse_errors - c0.parse_errors), "count"});

    // The traced phase's counters, per explain. Every table is warm, so
    // the memo sees hits only.
    CounterSums counters;
    counters.AddPhase(before, after, traced.size());
    AddCounterMetrics(counters, &out);

    // Replay every request through ExplanationService::Explain with the
    // configuration the server builds from it (one mining thread).
    causumx::ExplanationService& service = stack->service();
    MiningSamples mining;
    std::vector<double> service_ms, view_ms;
    causumx::JsonWriter per_dataset;
    per_dataset.BeginObject();
    ProbeSamples probes;
    auto pool = std::make_shared<causumx::ThreadPool>(
        causumx::ThreadPool::DefaultThreads());
    for (size_t d = 0; d < data.size(); ++d) {
      std::vector<double> ds_service, ds_view;
      MiningSamples ds_mining;
      const causumx::EngineCacheStats ds_before =
          SumStats(service, data, d, d + 1);
      for (size_t v = 0; v < 6; ++v) {
        const size_t i = d * 6 + v;
        CauSumXConfig config = specs[i].ToConfig();
        config.num_threads = 1;
        const double t0 = NowMs();
        const CauSumXResult r = service.Explain(
            specs[i].table, specs[i].query, data[d].dag, config);
        ds_service.push_back(NowMs() - t0);
        checker.Record(
            expected[i].Matches(SummaryDigest(r, specs[i].query)),
            "warm-mix replay " + specs[i].key);
        mining.Add(r);
        ds_mining.Add(r);
      }
      const causumx::EngineCacheStats ds_after =
          SumStats(service, data, d, d + 1);
      const std::shared_ptr<const causumx::Table> table =
          service.GetTable(data[d].ds.name);
      for (int rep = 0; rep < 3; ++rep) {
        ds_view.push_back(ProbeViewMs(*table, specs[d * 6].query,
                                      service.Engine(data[d].ds.name)->plan(),
                                      nullptr));
      }
      ProbeSamples ds_probes;
      ProbeEstimatorAndEngine(table, specs[d * 6].query, data[d].dag,
                              specs[d * 6].ToConfig(), pool, &ds_probes);
      for (auto [dst, src] :
           {std::pair{&probes.cate_miss_us, &ds_probes.cate_miss_us},
            std::pair{&probes.cate_hit_us, &ds_probes.cate_hit_us},
            std::pair{&probes.atom_build_us, &ds_probes.atom_build_us},
            std::pair{&probes.conj_eval_us, &ds_probes.conj_eval_us}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
      service_ms.insert(service_ms.end(), ds_service.begin(), ds_service.end());
      view_ms.insert(view_ms.end(), ds_view.begin(), ds_view.end());
      per_dataset.Key(data[d].ds.name).BeginObject()
          .Key("rows").Uint(data[d].ds.table.NumRows())
          .Key("service_explain_ms_p50").Double(Median(ds_service))
          .Key("view_ms").Double(Median(ds_view))
          .Key("grouping_ms_p50").Double(Median(ds_mining.grouping_ms))
          .Key("treatment_ms_p50").Double(Median(ds_mining.treatment_ms))
          .Key("selection_ms_p50").Double(Median(ds_mining.selection_ms))
          .Key("memo_hits_per_explain")
          .Double(static_cast<double>(ds_after.estimator.memo_hits -
                                      ds_before.estimator.memo_hits) / 6.0)
          .Key("memo_misses_per_explain")
          .Double(static_cast<double>(ds_after.estimator.memo_misses -
                                      ds_before.estimator.memo_misses) / 6.0)
          .Key("cate_hit_us_p50").Double(Median(ds_probes.cate_hit_us))
          .Key("conj_eval_us_p50").Double(Median(ds_probes.conj_eval_us))
          .Key("candidates").Double(ds_mining.candidates / 6.0)
          .EndObject();
    }
    per_dataset.EndObject();
    out.metrics.push_back({"service.explain_ms.p50", Median(service_ms), "ms"});
    out.metrics.push_back({"core.view_ms.p50", Median(view_ms), "ms"});
    AddMiningMetrics(mining, &out);
    AddProbeMetrics(probes, &out);
    out.meta.emplace_back("per_dataset", per_dataset.str());
    out.meta.emplace_back("explains", std::to_string(traced.size()));
    spans.WriteJson(args.out_dir + "/trace-warm-mix-seed" +
                    std::to_string(args.seed) + ".json");
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.meta.emplace_back("scale", std::to_string(p.scale));
  out.meta.emplace_back("clients", std::to_string(p.clients));
  stack.reset();
  RemoveTree(dir);
  return out;
}

}  // namespace layerbench
