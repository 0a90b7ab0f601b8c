// server — end-to-end throughput of the embedded HTTP serving
// layer: concurrent keep-alive clients against `causumx serve`'s REST
// surface (in-process), plus the warm-cache repeat property measured
// over the network instead of the library API.
//
// Gate:
//   1. every HTTP response carries a "summary" bit-identical to the
//      CLI's --json output for the same query (the reference is the
//      same RunCauSumX call the CLI makes);
//   2. a warm repeat served over HTTP beats a cold-cache query >= 2x
//      (median of paired rounds; the service's cross-query caches are
//      what the server exposes, so the speedup must survive the HTTP
//      hop);
//   3. N concurrent clients all receive that same bit-identical answer.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "causal/discovery.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "server/http_server.h"
#include "server/rest_api.h"
#include "service/explanation_service.h"
#include "util/json.h"
#include "util/timer.h"

namespace causumx::bench {

namespace {

std::string MakeExplainBody(const GeneratedDataset& ds) {
  JsonWriter w;
  w.BeginObject()
      .Key("table").String("bench")
      .Key("group_by").BeginArray();
  for (const auto& a : ds.default_query.group_by) w.String(a);
  w.EndArray()
      .Key("avg").String(ds.default_query.avg_attribute)
      .Key("discover").String("nodag")
      .Key("per_group_patterns").Bool(false)
      .Key("grouping_attrs").BeginArray();
  for (const auto& a : ds.grouping_attribute_hint) w.String(a);
  w.EndArray().Key("treatment_attrs").BeginArray();
  for (const auto& a : ds.treatment_attribute_hint) w.String(a);
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace

void Server(Section& s) {
  s.Banner("server", "concurrent HTTP clients vs the CLI reference");

  SyntheticOptions gen;
  // Same floor as the service gate: below ~12k rows the warm repeat is a
  // few milliseconds and the ratio drowns in scheduler noise.
  gen.num_rows =
      std::max<size_t>(12000, static_cast<size_t>(20000 * s.scale()));
  gen.num_treatment_attrs = 5;
  const GeneratedDataset ds = MakeSyntheticDataset(gen);
  std::printf("dataset: %s scaled to %zu rows\n", ds.name.c_str(),
              ds.table.NumRows());

  // The reference: what the CLI computes for this query (RunCauSumX with
  // the request's exact parameters — executor defaults + the allowlists
  // in the body). Results are thread-count invariant by the determinism
  // guarantee, so one reference covers every client.
  CauSumXConfig config;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  config.num_threads = 1;
  const CausalDag dag = MakeNoDag(ds.table, ds.default_query.avg_attribute);
  const CauSumXResult reference =
      RunCauSumX(ds.table, ds.default_query, dag, config);
  const std::string expected =
      SummaryToJson(reference.summary, &ds.default_query);

  ExplanationService service;
  service.RegisterTable("bench",
                        std::make_shared<const Table>(ds.table.Clone()));

  HttpServerOptions server_options;
  server_options.port = 0;  // ephemeral
  HttpServer server(MakeRestHandler(service), server_options);
  server.Start();
  std::printf("serving on 127.0.0.1:%u (%zu workers)\n",
              unsigned{server.port()}, server.options().num_threads);

  const std::string body = MakeExplainBody(ds);

  // --- warm repeat over HTTP ------------------------------------------------
  // Paired rounds: re-registering the table drops its caches, so each
  // round times one cold HTTP query immediately followed by one warm
  // repeat under the same machine conditions; the median per-pair ratio
  // is the noise-robust statistic.
  constexpr int kPairs = 5;
  std::vector<double> cold_times, warm_times;
  HttpClient pair_client("127.0.0.1", server.port());
  for (int i = 0; i < kPairs; ++i) {
    service.RegisterTable("bench",
                          std::make_shared<const Table>(ds.table.Clone()));
    Timer timer;
    const HttpClient::Response cold =
        pair_client.Request("POST", "/v1/explain", body);
    cold_times.push_back(timer.Seconds());
    timer.Reset();
    const HttpClient::Response warm =
        pair_client.Request("POST", "/v1/explain", body);
    warm_times.push_back(timer.Seconds());
    if (cold.status != 200 || warm.status != 200) {
      s.Fail(Fmt("pair %d status %d/%d", i + 1, cold.status, warm.status));
      break;
    }
    s.ExpectIdentical(TrailingSummary(cold.body), expected,
                      Fmt("pair %d cold HTTP summary", i + 1));
    s.ExpectIdentical(TrailingSummary(warm.body), expected,
                      Fmt("pair %d warm HTTP summary", i + 1));
  }
  if (s.ok()) {
    std::printf("\n%-34s %10s\n", "mode", "seconds");
    std::printf("%-34s %10.4f\n", "HTTP explain (cold cache, best)",
                Best(cold_times));
    std::printf("%-34s %10.4f\n", "HTTP explain (warm repeat, best)",
                Best(warm_times));
  }
  s.ExpectMedianOfPairs("warm repeat speedup over HTTP", cold_times,
                        warm_times, 2.0);

  // --- concurrent clients ---------------------------------------------------
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  Timer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        HttpClient client("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsEach; ++i) {
          try {
            const HttpClient::Response r =
                client.Request("POST", "/v1/explain", body);
            if (r.status != 200) {
              errors.fetch_add(1);
            } else if (TrailingSummary(r.body) != expected) {
              mismatches.fetch_add(1);
            }
          } catch (const std::exception&) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_s = wall.Seconds();
  const int total = kClients * kRequestsEach;
  std::printf("\n%d clients x %d warm requests: %.4fs total, %.1f req/s\n",
              kClients, kRequestsEach, wall_s, total / wall_s);
  if (errors.load() > 0 || mismatches.load() > 0) {
    s.Fail(Fmt("%d transport errors, %d summary mismatches", errors.load(),
               mismatches.load()));
  }

  const HttpServerCounters counters = server.counters();
  std::printf("server counters: %llu connections, %llu requests, "
              "%llu rejected, %llu parse errors\n",
              (unsigned long long)counters.connections_accepted,
              (unsigned long long)counters.requests_handled,
              (unsigned long long)counters.requests_rejected,
              (unsigned long long)counters.parse_errors);
  server.Stop();
}

}  // namespace causumx::bench
