// append-stream: writes beside reads, with one client. Adult starts with
// its first rows registered; the rest are replayed in generation order as
// fixed-size POST /v1/tables/{name}/append batches, each followed by a
// POST /v1/explain of the default query. One sliding monitor watches the
// table, data_dir points to a fresh directory with snapshot-on-append on,
// and a fixed memory budget sits below the workload's unconstrained cache
// footprint. The engine and causal layers run their write paths here:
// delta extension, memo migration, retraction at window boundaries, and
// LRU eviction; stream and storage do all their work here.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "causal/dag_io.h"
#include "datagen/adult.h"
#include "engine/eval_engine.h"
#include "server_stack.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace layerbench {

namespace {

struct Params {
  size_t adult_rows;
  size_t base_rows;
  size_t batch_rows;
  size_t window_rows;
  size_t slide_rows;
  size_t budget_bytes;
  size_t instances;  ///< streams per run, each from its own generator seed
  size_t setup_reps;
};

// Adult at 10000 rows with its first 8000 registered, then 25 batches of
// 80 rows. Every explain after an append is nearly cold (generation
// order dirties almost every subpopulation), so one pass takes about five
// seconds. A run replays four streams, each generated from its own seed,
// so one stream's quirks weigh a quarter. Unconstrained, the service's
// caches peak at about 13 MB on these streams (13317660 bytes at seed 1);
// the 6 MiB budget makes the LRU evict.
Params ParamsFor(const RunArgs& args) {
  if (args.smoke) return {3200, 1000, 100, 400, 100, 256 << 10, 2, 1};
  return {10000, 8000, 80, 1000, 250, 6 << 20, 4, 3};
}

const char kTable[] = "adult";

struct Input {
  GeneratedDataset ds;
  std::string dag_path;
  causumx::CausalDag dag;
  ExplainSpec spec;
  std::vector<std::vector<causumx::Value>> rows;  ///< every row, in order
  size_t batches = 0;
};

// Stream `k` of the run: the generator seed is shifted by
// seed * instances + k, so no two runs share a stream.
Input Generate(const RunArgs& args, const Params& p, const std::string& dir,
               size_t k) {
  causumx::AdultOptions opt;
  opt.num_rows = p.adult_rows;
  opt.seed += args.seed * p.instances + k;
  Input in{causumx::MakeAdultDataset(opt),
           dir + "/adult-" + std::to_string(k) + ".dag", {}, {}, {}, 0};
  WriteDagFile(in.ds, in.dag_path);
  in.dag = causumx::ReadDagFile(in.dag_path);
  in.spec = DefaultSpec(in.ds, kTable, in.dag_path);
  in.rows = in.ds.table.MaterializeRows(0, in.ds.table.NumRows());
  in.batches = (in.rows.size() - p.base_rows) / p.batch_rows;
  return in;
}

std::string MonitorSpec(const Input& in, const Params& p) {
  causumx::JsonWriter w;
  w.BeginObject().Key("table").String(kTable).Key("group_by").BeginArray();
  for (const auto& a : in.spec.query.group_by) w.String(a);
  w.EndArray()
      .Key("avg").String(in.spec.query.avg_attribute)
      .Key("dag").String(in.dag_path)
      .Key("window").BeginObject()
      .Key("kind").String("sliding")
      .Key("size_rows").Uint(p.window_rows)
      .Key("slide_rows").Uint(p.slide_rows)
      .EndObject()
      .Key("thresholds").BeginObject()
      .Key("cate_delta").Double(1000.0)
      .Key("topk_churn").Double(0.5)
      .EndObject()
      .Key("emit_summaries").Bool(true)
      .EndObject();
  return w.str();
}

// Windows the monitor must have evaluated after `observed` stream rows.
uint64_t ExpectedWindows(uint64_t observed, const Params& p) {
  if (observed < p.window_rows) return 0;
  return (observed - p.window_rows) / p.slide_rows + 1;
}

// A serving stack with the base rows registered and the monitor created.
std::unique_ptr<ServerStack> SetUpStack(const Input& in, const Params& p,
                                        const std::string& data_dir,
                                        Checker* checker) {
  RemoveTree(data_dir);
  std::filesystem::create_directories(data_dir);
  causumx::ServiceOptions options;
  options.data_dir = data_dir;
  options.snapshot_on_append = true;
  options.memory_budget_bytes = p.budget_bytes;
  auto stack = std::make_unique<ServerStack>(options, true);
  stack->service().RegisterTable(kTable, in.ds.table.Head(p.base_rows));
  causumx::HttpClient client("127.0.0.1", stack->port());
  const HttpOp created = Call(client, "POST", "/v1/monitors", MonitorSpec(in, p));
  checker->Record(created.status == 201, "append-stream monitor create: " +
                                             created.body);
  return stack;
}

}  // namespace

Outcome RunAppendStream(const RunArgs& args) {
  const Params p = ParamsFor(args);
  const std::string dir = MakeScratchDir(args, "append");
  const std::string data_dir = dir + "/data";
  Outcome out;
  Checker checker;
  Golden golden;
  golden.Load(args.golden_path, "append-stream",
              args.seed == 0 && !args.smoke);

  // References: the CLI path over each prefix each stream produces.
  const double ref_begin = NowMs();
  std::vector<std::vector<Expected>> expected(p.instances);
  std::vector<Expected> expected_events;
  for (size_t k = 0; k < p.instances; ++k) {
    const Input in = Generate(args, p, dir, k);
    CauSumXConfig config = in.spec.ToConfig();
    config.num_threads = 0;
    const std::string prefix_key = "i" + std::to_string(k) + "/";
    for (size_t b = 1; b <= in.batches; ++b) {
      const causumx::Table prefix =
          in.ds.table.Head(p.base_rows + b * p.batch_rows);
      const std::string key = prefix_key + "batch-" + std::to_string(b);
      const std::string digest = SummaryDigest(
          causumx::RunCauSumX(prefix, in.spec.query, in.dag, config),
          in.spec.query);
      out.digests[key] = digest;
      expected[k].push_back({digest, golden.Get(key)});
    }
    expected_events.push_back({"", golden.Get(prefix_key + "events")});
  }
  if (args.tamper) expected[0][0].reference = Digest("tampered");
  const double ref_ms = NowMs() - ref_begin;

  // Set-up: generate every stream, then serve the first one.
  std::vector<double> setups;
  std::vector<Input> inputs;
  std::unique_ptr<ServerStack> stack;
  for (size_t rep = 0; rep < p.setup_reps; ++rep) {
    stack.reset();
    inputs.clear();
    const double begin = rep == 0 ? 0.0 : NowMs();
    for (size_t k = 0; k < p.instances; ++k) {
      inputs.push_back(Generate(args, p, dir, k));
    }
    stack = SetUpStack(inputs[0], p, data_dir, &checker);
    setups.push_back((NowMs() - begin - (rep == 0 ? ref_ms : 0.0)) / 1e3);
  }

  SpanLog spans;
  std::vector<double> append_ms, handler_ms, transport_ms, rest_ms;
  std::vector<double> extend_ms, boundary_ms, snapshot_ms;
  CounterSums counters;
  uint64_t enforcements = 0;
  size_t peak_cache_bytes = 0;
  causumx::MonitorStatus last_status;
  uint64_t rejected = 0, parse_errors = 0;
  bool first_pass = true;

  // One pass replays every batch of stream `k` once over a fresh stack
  // (rebuilding the stack is not timed). Returns the pass's timed ms.
  auto run_pass = [&](size_t k, bool traced, std::vector<double>* explain_ms) {
    const Input& in = inputs[k];
    if (!first_pass) stack = SetUpStack(in, p, data_dir, &checker);
    first_pass = false;
    causumx::ExplanationService& service = stack->service();
    const causumx::HttpServerCounters c0 = stack->counters();
    const uint64_t enf0 = service.Stats().budget_enforcements;
    stack->set_tracing(traced);
    causumx::HttpClient client("127.0.0.1", stack->port());
    const double begin = NowMs();
    for (size_t b = 1; b <= in.batches; ++b) {
      const size_t first = p.base_rows + (b - 1) * p.batch_rows;
      const std::string aid = "i" + std::to_string(k) + "-a" + std::to_string(b);
      const HttpOp append = Call(
          client, "POST", std::string("/v1/tables/") + kTable + "/append",
          "{\"id\":\"" + aid + "\",\"rows\":" +
              RowsJson(in.rows, first, first + p.batch_rows) + "}");
      append_ms.push_back(append.latency_ms());
      checker.Record(
          append.ok() && ExtractNumber(append.body, "rows_total") ==
                             static_cast<double>(first + p.batch_rows),
          "append-stream append " + std::to_string(b) + ": " +
              append.body.substr(0, 200));
      causumx::EngineCacheStats before;
      HandlerMarks m;
      if (traced) {
        if (RecordHttpSpans(&spans, stack.get(), aid, true, append, &m)) {
          handler_ms.push_back(m.end - m.start);
          transport_ms.push_back(append.latency_ms() - (m.end - m.start));
          extend_ms.push_back(m.before_monitors - m.start);
          snapshot_ms.push_back(m.end - m.after_monitors);
          const uint64_t observed = (b - 1) * p.batch_rows;
          if (ExpectedWindows(observed + p.batch_rows, p) >
              ExpectedWindows(observed, p)) {
            boundary_ms.push_back(m.after_monitors - m.before_monitors);
          }
        }
        before.eval = service.Engine(kTable)->Stats();
        before.estimator =
            service.Context(kTable, in.dag, causumx::EstimatorOptions{})
                ->Stats();
        counters.bitsets_extended +=
            static_cast<double>(before.eval.bitsets_extended);
        counters.memo_migrated +=
            static_cast<double>(before.estimator.memo_migrated);
      }
      const std::string eid = "i" + std::to_string(k) + "-e" + std::to_string(b);
      const HttpOp explain =
          Call(client, "POST", "/v1/explain", in.spec.ToJson(eid));
      explain_ms->push_back(explain.latency_ms());
      checker.Record(explain.ok() && expected[k][b - 1].Matches(Digest(
                                         ExtractSummary(explain.body))),
                     "append-stream explain after batch " + std::to_string(b));
      if (traced) {
        causumx::EngineCacheStats after;
        after.eval = service.Engine(kTable)->Stats();
        after.estimator =
            service.Context(kTable, in.dag, causumx::EstimatorOptions{})
                ->Stats();
        counters.AddExplain(before, after);
        peak_cache_bytes = std::max(peak_cache_bytes, service.CacheBytes());
        if (RecordHttpSpans(&spans, stack.get(), eid, false, explain, &m)) {
          handler_ms.push_back(m.end - m.start);
          transport_ms.push_back(explain.latency_ms() - (m.end - m.start));
          rest_ms.push_back((m.end - m.start) -
                            ExtractNumber(explain.body, "elapsed_ms"));
        }
      }
    }
    const double timed_ms = NowMs() - begin;
    stack->set_tracing(false);

    // The monitor's event stream: seqs 1..n without gaps, one window per
    // boundary crossed, and (default seed) the committed event digest.
    const HttpOp events = Call(client, "GET", "/v1/monitors/m1/events?since=0");
    const causumx::MonitorStatus status =
        stack->monitors()->Get("m1")->Status();
    bool events_ok = events.ok();
    if (events_ok) {
      const causumx::JsonValue doc = causumx::JsonValue::Parse(events.body);
      const auto& list = doc.Find("events")->AsArray();
      for (size_t i = 0; i < list.size(); ++i) {
        events_ok = events_ok &&
                    list[i].GetNumber("seq", 0) == static_cast<double>(i + 1);
      }
      events_ok = events_ok && status.last_seq == list.size() &&
                  status.windows_evaluated ==
                      ExpectedWindows(in.batches * p.batch_rows, p);
    }
    const std::string events_digest = Digest(events.body);
    out.digests["i" + std::to_string(k) + "/events"] = events_digest;
    checker.Record(events_ok && (expected_events[k].golden.empty() ||
                                 events_digest == expected_events[k].golden),
                   "append-stream monitor events");
    if (traced) {
      last_status = status;
      enforcements += service.Stats().budget_enforcements - enf0;
      const causumx::HttpServerCounters c1 = stack->counters();
      rejected += c1.requests_rejected - c0.requests_rejected;
      parse_errors += c1.parse_errors - c0.parse_errors;
    }
    return timed_ms;
  };

  // Whole rounds over every stream, so each run weighs them alike.
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<double>* explain_ms) {
    double timed_ms = 0;
    size_t rounds = 0;
    do {
      for (size_t k = 0; k < inputs.size(); ++k) {
        timed_ms += run_pass(k, traced, explain_ms);
      }
    } while (!PhaseDone(timed_ms, ++rounds, seconds));
    return timed_ms / 1e3;
  };

  if (!args.trace) {
    std::vector<double> explain_ms;
    const double phase_s = run_phase(args.seconds, false, &explain_ms);
    out.metrics.push_back(SetupMetric(setups));
    AddExplainMetrics(explain_ms, phase_s, &out);
    out.meta.emplace_back("explains", std::to_string(explain_ms.size()));
  } else {
    std::vector<double> untraced, traced;
    run_phase(args.seconds / 2, false, &untraced);
    append_ms.clear();
    run_phase(args.seconds / 2, true, &traced);
    causumx::ExplanationService& service = stack->service();
    const Input& in = inputs.back();  // the stream of the last pass
    AddOverheadMetric(untraced, traced, &out);
    AddSelfTimeMetrics(spans.Snapshot(), traced.size() + append_ms.size(),
                       &out);
    out.metrics.push_back({"append_ms.p50", Quantile(append_ms, 0.5), "ms"});
    out.metrics.push_back({"append_ms.p90", Quantile(append_ms, 0.9), "ms"});
    out.metrics.push_back({"server.handler_ms.p50", Median(handler_ms), "ms"});
    out.metrics.push_back(
        {"server.transport_ms.p50", Median(transport_ms), "ms"});
    out.metrics.push_back(
        {"server.rest_overhead_ms.p50", Median(rest_ms), "ms"});
    out.metrics.push_back(
        {"server.rejected", static_cast<double>(rejected), "count"});
    out.metrics.push_back(
        {"server.parse_errors", static_cast<double>(parse_errors), "count"});
    out.metrics.push_back(
        {"service.append_extend_ms.p50", Median(extend_ms), "ms"});
    out.metrics.push_back(
        {"service.cache_bytes", static_cast<double>(service.CacheBytes()),
         "bytes"});
    out.metrics.push_back({"service.budget_enforcements",
                           static_cast<double>(enforcements), "count"});
    out.metrics.push_back(
        {"stream.boundary_ms.p50", Quantile(boundary_ms, 0.5), "ms"});
    out.metrics.push_back(
        {"stream.boundary_ms.p90", Quantile(boundary_ms, 0.9), "ms"});
    out.metrics.push_back(
        {"stream.windows_evaluated",
         static_cast<double>(last_status.windows_evaluated), "count"});
    out.metrics.push_back(
        {"stream.events", static_cast<double>(last_status.last_seq), "count"});
    out.metrics.push_back({"stream.cache_bytes",
                           static_cast<double>(last_status.cache_bytes),
                           "bytes"});
    out.metrics.push_back(
        {"storage.snapshot_ms.p50", Median(snapshot_ms), "ms"});
    out.metrics.push_back(
        {"storage.snapshot_bytes",
         static_cast<double>(
             std::filesystem::file_size(service.SnapshotPath(kTable))),
         "bytes"});

    // storage: restore the final snapshot into fresh services. This is a
    // probe, not a workload op: whether the service accepted the snapshot
    // is reported beside the time, not counted as a failure.
    std::vector<double> restore_ms;
    bool restore_accepted = true;
    for (int rep = 0; rep < 3; ++rep) {
      causumx::ExplanationService fresh(service.options());
      causumx::Timer t;
      restore_accepted = fresh.RestoreTable(kTable) && restore_accepted;
      restore_ms.push_back(t.Millis());
    }
    out.metrics.push_back({"storage.restore_ms", Median(restore_ms), "ms"});
    out.meta.emplace_back("restore_accepted",
                          restore_accepted ? "true" : "false");

    // dataset: Table::Clone + AppendRows of every batch on a copy.
    std::vector<double> clone_append_ms;
    {
      causumx::Table copy = in.ds.table.Head(p.base_rows);
      for (size_t b = 1; b <= in.batches; ++b) {
        const size_t first = p.base_rows + (b - 1) * p.batch_rows;
        const std::vector<std::vector<causumx::Value>> batch(
            in.rows.begin() + static_cast<std::ptrdiff_t>(first),
            in.rows.begin() + static_cast<std::ptrdiff_t>(first + p.batch_rows));
        causumx::Timer t;
        causumx::Table grown = copy.Clone();
        grown.AppendRows(batch);
        clone_append_ms.push_back(t.Millis());
        copy = std::move(grown);
      }
    }
    out.metrics.push_back(
        {"dataset.clone_append_ms.p50", Median(clone_append_ms), "ms"});

    // engine: predicates carried through one window retraction, as the
    // monitor retracts at a boundary: mine the first window warm, then
    // drop one slide.
    {
      auto pool = std::make_shared<causumx::ThreadPool>(
          causumx::ThreadPool::DefaultThreads());
      auto window = std::make_shared<const causumx::Table>(
          in.ds.table.Tail(p.base_rows).Head(p.window_rows));
      causumx::EvalEngineOptions eopt;
      eopt.num_shards = 0;
      eopt.pool = pool;
      auto engine = std::make_shared<causumx::EvalEngine>(window, eopt);
      CauSumXConfig config = in.spec.ToConfig();
      auto ctx = std::make_shared<causumx::EstimatorContext>(engine, in.dag,
                                                              config.estimator);
      causumx::MineExplanationCandidates(*window, in.spec.query, in.dag,
                                         config, engine, ctx, pool.get());
      auto tail =
          std::make_shared<const causumx::Table>(window->Tail(p.slide_rows));
      const causumx::EvalEngine retracted(tail, *engine, p.slide_rows);
      counters.bitsets_retracted =
          static_cast<double>(retracted.Stats().bitsets_retracted);
    }
    AddCounterMetrics(counters, &out);
    out.meta.emplace_back("explains", std::to_string(traced.size()));
    out.meta.emplace_back("peak_cache_bytes", std::to_string(peak_cache_bytes));
    spans.WriteJson(args.out_dir + "/trace-append-stream-seed" +
                    std::to_string(args.seed) + ".json");
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.meta.emplace_back("streams", std::to_string(p.instances));
  out.meta.emplace_back("adult_rows", std::to_string(p.adult_rows));
  out.meta.emplace_back("base_rows", std::to_string(p.base_rows));
  out.meta.emplace_back("batch_rows", std::to_string(p.batch_rows));
  out.meta.emplace_back("batches", std::to_string(inputs[0].batches));
  out.meta.emplace_back("memory_budget_bytes", std::to_string(p.budget_bytes));
  stack.reset();
  RemoveTree(dir);
  return out;
}

}  // namespace layerbench
