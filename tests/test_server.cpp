// Tests for the embedded HTTP serving layer (src/server/): framing
// (incremental parsing at any byte boundary, typed parse errors), the
// transport (bounded admission queue shedding 503s, keep-alive
// connection reuse), and the REST surface over the ExplanationService —
// including the acceptance guarantee that a query answered over HTTP is
// bit-identical to the same query run directly, and that appends land
// safely while explains are in flight (this suite runs under TSan in
// CI).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "causal/discovery.h"
#include "core/causumx.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/rest_api.h"
#include "service/explanation_service.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace causumx {
namespace {

// ---- framing ---------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestFedByteByByte) {
  const std::string raw =
      "POST /v1/tables/my%20table/append?pretty=1&x=a+b HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"rows\":[]}";
  HttpRequestParser parser(1024);
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.Consume(&raw[i], 1), HttpRequestParser::State::kNeedMore)
        << "completed early at byte " << i;
  }
  ASSERT_EQ(parser.Consume(&raw[raw.size() - 1], 1),
            HttpRequestParser::State::kDone);
  const HttpRequest& r = parser.request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.path, "/v1/tables/my table/append");
  EXPECT_EQ(r.query.at("pretty"), "1");
  EXPECT_EQ(r.query.at("x"), "a b");
  EXPECT_EQ(r.Header("content-type"), "application/json");
  EXPECT_EQ(r.body, "{\"rows\":[]}");
  EXPECT_TRUE(r.keep_alive);
}

TEST(HttpParserTest, TypedParseErrors) {
  auto parse = [](const std::string& raw, size_t max_body = 1024) {
    HttpRequestParser parser(max_body);
    parser.Consume(raw.data(), raw.size());
    return parser;
  };

  EXPECT_EQ(parse("garbage\r\n\r\n").error_status(), 400);
  EXPECT_EQ(parse("GET / HTTP/2.0\r\n\r\n").error_status(), 505);
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .error_status(),
            501);
  // Oversized declared body fails from the header alone — no body bytes.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 64)
                .error_status(),
            413);
  HttpRequestParser tiny_headers(1024, 32);
  const std::string long_request =
      "GET /a/very/long/path/exceeding/the/cap HTTP/1.1\r\n\r\n";
  tiny_headers.Consume(long_request.data(), long_request.size());
  EXPECT_EQ(tiny_headers.error_status(), 431);
}

// Fuzz-harness property pinned as a unit test: obsolete header folding
// (a continuation line starting with SP/HTAB, RFC 7230 §3.2.4) is
// rejected with a 400 — the folded line has no colon — and the verdict
// is identical whether the request arrives whole or byte-by-byte.
TEST(HttpParserTest, ObsoleteHeaderFoldingIs400AtAnySplit) {
  const std::string raw =
      "GET /h HTTP/1.1\r\n"
      "X-Folded: first\r\n"
      "\tcontinued value\r\n"
      "\r\n";

  HttpRequestParser whole(1024);
  EXPECT_EQ(whole.Consume(raw.data(), raw.size()),
            HttpRequestParser::State::kError);
  EXPECT_EQ(whole.error_status(), 400);

  HttpRequestParser split(1024);
  HttpRequestParser::State st = HttpRequestParser::State::kNeedMore;
  for (char c : raw) {
    st = split.Consume(&c, 1);
    if (st != HttpRequestParser::State::kNeedMore) break;
  }
  EXPECT_EQ(st, HttpRequestParser::State::kError);
  EXPECT_EQ(split.error_status(), whole.error_status());

  // The space-folded variant is the same defect.
  const std::string space_folded =
      "GET /h HTTP/1.1\r\nA: b\r\n  c\r\n\r\n";
  HttpRequestParser sp(1024);
  EXPECT_EQ(sp.Consume(space_folded.data(), space_folded.size()),
            HttpRequestParser::State::kError);
  EXPECT_EQ(sp.error_status(), 400);
}

TEST(HttpParserTest, PipelinedRequestsParseAcrossReset) {
  const std::string raw =
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpRequestParser parser(1024);
  ASSERT_EQ(parser.Consume(raw.data(), raw.size()),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().path, "/first");
  EXPECT_TRUE(parser.HasBufferedData());
  parser.Reset();
  ASSERT_EQ(parser.state(), HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().path, "/second");
  EXPECT_FALSE(parser.request().keep_alive);
}

TEST(HttpParserTest, ConnectionCloseHeaderDisablesKeepAlive) {
  const std::string raw = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpRequestParser parser(1024);
  ASSERT_EQ(parser.Consume(raw.data(), raw.size()),
            HttpRequestParser::State::kDone);
  EXPECT_FALSE(parser.request().keep_alive);
}

// ---- transport (generic handlers) ------------------------------------------

TEST(HttpServerTest, QueueFullShedsLoadWith503) {
  // A handler that blocks until released: fills the admission queue
  // deterministically without depending on query timing.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 2;  // workers are free; the *gate* must shed
  options.max_queue = 1;
  HttpServer server(
      [&](const HttpRequest&) {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        return HttpResponse::Json(200, "{\"slow\":true}");
      },
      options);
  server.Start();

  auto slow = std::async(std::launch::async, [&] {
    HttpClient client("127.0.0.1", server.port());
    return client.Request("GET", "/slow");
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // The queue (depth 1) is now full: the next request sheds immediately.
  HttpClient rejected("127.0.0.1", server.port());
  const HttpClient::Response r = rejected.Request("GET", "/fast");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"ok\":false"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(slow.get().status, 200);
  EXPECT_GE(server.counters().requests_rejected, 1u);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveReusesOneConnection) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  HttpServer server(
      [](const HttpRequest& r) {
        return HttpResponse::Json(200, "{\"path\":\"" + r.path + "\"}");
      },
      options);
  server.Start();

  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    const HttpClient::Response r =
        client.Request("GET", StrFormat("/req/%d", i));
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.headers.at("connection"), "keep-alive");
    EXPECT_TRUE(client.connected());
  }
  const HttpServerCounters c = server.counters();
  EXPECT_EQ(c.connections_accepted, 1u);
  EXPECT_EQ(c.requests_handled, 3u);
  server.Stop();
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  HttpServer server(
      [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("boom");
      },
      options);
  server.Start();
  HttpClient client("127.0.0.1", server.port());
  const HttpClient::Response r = client.Request("GET", "/");
  EXPECT_EQ(r.status, 500);
  EXPECT_NE(r.body.find("boom"), std::string::npos);
  server.Stop();
}

// ---- REST surface ----------------------------------------------------------

GeneratedDataset MakeData() {
  SyntheticOptions opt;
  opt.num_rows = 900;
  opt.num_treatment_attrs = 3;
  return MakeSyntheticDataset(opt);
}

// A service + REST server world shared by the endpoint tests.
struct ServerWorld {
  GeneratedDataset ds;
  ExplanationService service;
  HttpServer server;

  explicit ServerWorld(HttpServerOptions options = MakeOptions(),
                       ServiceOptions service_options = {})
      : ds(MakeData()),
        service(service_options),
        server(MakeRestHandler(service), options) {
    service.RegisterTable("synthetic",
                          std::make_shared<const Table>(ds.table.Clone()));
    server.Start();
  }
  ~ServerWorld() { server.Stop(); }

  static HttpServerOptions MakeOptions() {
    HttpServerOptions options;
    options.port = 0;
    options.num_threads = 4;
    return options;
  }

  /// The JSON body of an explain request mirroring the dataset's default
  /// query + test config, with the No-DAG strawman (the only DAG choice
  /// expressible without a file).
  std::string ExplainBody() const {
    JsonWriter w;
    w.BeginObject()
        .Key("table").String("synthetic")
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

  /// The reference summary for ExplainBody(), computed without any
  /// server: bit-identical by the determinism guarantee.
  std::string ReferenceSummaryJson() const {
    CauSumXConfig config;  // the executor's defaults for the body above
    config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
    config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
    config.grouping.include_per_group_patterns = false;
    config.num_threads = 1;
    const CausalDag dag =
        MakeNoDag(ds.table, ds.default_query.avg_attribute);
    const CauSumXResult direct =
        RunCauSumX(ds.table, ds.default_query, dag, config);
    return SummaryToJson(direct.summary, &ds.default_query);
  }
};

// One appendable row in schema order, as a JSON array ("fresh" into
// categorical columns, 1 into numeric ones).
std::string MakeRowJson(const Table& schema) {
  JsonWriter row;
  row.BeginArray();
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (schema.column(c).type() == ColumnType::kCategorical) {
      row.String("fresh");
    } else {
      row.Int(1);
    }
  }
  row.EndArray();
  return row.str();
}

// Extracts the exact "summary" JSON text from an explain response body
// (it is the final member when cache stats are off).
std::string ExtractSummary(const std::string& body) {
  const std::string marker = "\"summary\":";
  const size_t pos = body.find(marker);
  if (pos == std::string::npos || body.empty() || body.back() != '}') {
    return "";
  }
  return body.substr(pos + marker.size(),
                     body.size() - pos - marker.size() - 1);
}

TEST(RestApiTest, HealthzAndStatsAndTables) {
  ServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());

  const auto health = client.Request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\"}");

  const auto tables = client.Request("GET", "/v1/tables");
  EXPECT_EQ(tables.status, 200);
  EXPECT_NE(tables.body.find("\"name\":\"synthetic\""), std::string::npos);

  ASSERT_EQ(client.Request("POST", "/v1/explain", w.ExplainBody()).status,
            200);
  ASSERT_EQ(client.Request("POST", "/v1/explain", w.ExplainBody()).status,
            200);
  const auto stats = client.Request("GET", "/v1/stats");
  EXPECT_EQ(stats.status, 200);
  const JsonValue parsed = JsonValue::Parse(stats.body);
  const JsonValue* service = parsed.Find("service");
  EXPECT_EQ(service->GetNumber("tables_registered", -1), 1);
  // The repeat was served from the mined candidates, whose bytes are
  // part of cache_bytes.
  EXPECT_EQ(service->GetNumber("candidate_misses", -1), 1);
  EXPECT_EQ(service->GetNumber("candidate_hits", -1), 1);
  EXPECT_GT(service->GetNumber("candidate_bytes", -1), 0);
  EXPECT_GE(service->GetNumber("cache_bytes", -1),
            service->GetNumber("candidate_bytes", -1));
  EXPECT_EQ(parsed.Find("tables")->AsArray().size(), 1u);
  EXPECT_NE(parsed.Find("tables")->AsArray()[0].Find("engine"), nullptr);
  // The first explain fit its CATEs from Gram blocks: every memo miss
  // either built a block or reused one.
  const JsonValue* est = parsed.Find("tables")->AsArray()[0].Find("estimator");
  ASSERT_NE(est, nullptr);
  EXPECT_GT(est->GetNumber("memo_misses", -1), 0);
  EXPECT_GT(est->GetNumber("gram_builds", -1), 0);
  EXPECT_GT(est->GetNumber("gram_hits", -1), 0);
  EXPECT_LE(est->GetNumber("gram_builds", -1) + est->GetNumber("gram_hits", -1),
            est->GetNumber("memo_misses", -1));
  EXPECT_GT(est->GetNumber("gram_bytes", -1), 0);
}

TEST(RestApiTest, ExplainIsBitIdenticalToDirectRun) {
  ServerWorld w;
  const std::string expected = w.ReferenceSummaryJson();

  HttpClient client("127.0.0.1", w.server.port());
  const auto r1 = client.Request("POST", "/v1/explain", w.ExplainBody());
  ASSERT_EQ(r1.status, 200);
  EXPECT_EQ(ExtractSummary(r1.body), expected);

  // Warm repeat over the same connection: still bit-identical.
  const auto r2 = client.Request("POST", "/v1/explain", w.ExplainBody());
  ASSERT_EQ(r2.status, 200);
  EXPECT_EQ(ExtractSummary(r2.body), expected);
}

TEST(RestApiTest, TypedErrorResponses) {
  ServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());

  EXPECT_EQ(client.Request("POST", "/v1/explain", "{not json").status, 400);
  EXPECT_EQ(client
                .Request("POST", "/v1/explain",
                         "{\"table\":\"nope\",\"group_by\":[\"G1\"],"
                         "\"avg\":\"O\"}")
                .status,
            404);
  // Registered table, bad query parameters.
  EXPECT_EQ(client
                .Request("POST", "/v1/explain",
                         "{\"table\":\"synthetic\",\"avg\":\"O\"}")
                .status,
            400);
  for (const std::string bad :
       {"\"k\":-1", "\"k\":1.5", "\"k\":1e30", "\"num_threads\":8"}) {
    EXPECT_EQ(client
                  .Request("POST", "/v1/explain",
                           "{\"table\":\"synthetic\",\"group_by\":[\"G1\"],"
                           "\"avg\":\"O\"," + bad + "}")
                  .status,
              400)
        << bad;
  }
  EXPECT_EQ(client.Request("GET", "/v1/nope").status, 404);
  EXPECT_EQ(client.Request("POST", "/healthz", "{}").status, 405);
  EXPECT_EQ(client
                .Request("POST", "/v1/tables/nope/append",
                         "{\"rows\":[]}")
                .status,
            404);
  // URL/body table mismatch.
  EXPECT_EQ(client
                .Request("POST", "/v1/tables/synthetic/append",
                         "{\"table\":\"other\",\"rows\":[]}")
                .status,
            400);
  // Append with neither rows nor csv.
  EXPECT_EQ(
      client.Request("POST", "/v1/tables/synthetic/append", "{}").status,
      400);
}

TEST(RestApiTest, OversizedBodyIs413) {
  HttpServerOptions options = ServerWorld::MakeOptions();
  options.max_body_bytes = 512;
  ServerWorld w(options);
  HttpClient client("127.0.0.1", w.server.port());
  const std::string big(2048, 'x');
  const auto r = client.Request("POST", "/v1/explain", big);
  EXPECT_EQ(r.status, 413);
  EXPECT_NE(r.body.find("\"ok\":false"), std::string::npos);
}

TEST(RestApiTest, AppendGrowsTableAndVersions) {
  ServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());
  const size_t base_rows = w.service.GetTable("synthetic")->NumRows();

  // One inline row in schema order (values coerced by column type).
  const std::string body =
      "{\"rows\":[" + MakeRowJson(*w.service.GetTable("synthetic")) + "]}";

  const auto r = client.Request("POST", "/v1/tables/synthetic/append", body);
  ASSERT_EQ(r.status, 200) << r.body;
  const JsonValue parsed = JsonValue::Parse(r.body);
  EXPECT_EQ(parsed.GetNumber("rows_appended", 0), 1);
  EXPECT_EQ(parsed.GetNumber("rows_total", 0),
            static_cast<double>(base_rows + 1));
  EXPECT_EQ(w.service.GetTable("synthetic")->NumRows(), base_rows + 1);
  EXPECT_EQ(w.service.TableVersion("synthetic"), 1u);
}

TEST(RestApiTest, BatchEndpointRunsJsonlWithAppendBarrier) {
  ServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());

  const std::string jsonl =
      "{\"id\":\"q1\"," + w.ExplainBody().substr(1) + "\n" +
      "{\"op\":\"append\",\"table\":\"synthetic\",\"rows\":[" +
      MakeRowJson(*w.service.GetTable("synthetic")) + "]}\n" +
      "{\"id\":\"q2\"," + w.ExplainBody().substr(1) + "\n";
  const auto r = client.Request("POST", "/v1/batch", jsonl,
                                "application/x-ndjson");
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"), "application/x-ndjson");

  const std::vector<std::string> lines = Split(Trim(r.body), '\n');
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  // The barrier: q2 ran against the grown table.
  EXPECT_NE(lines[1].find("\"op\":\"append\""), std::string::npos);
  EXPECT_EQ(w.service.TableVersion("synthetic"), 1u);
}

// The acceptance scenario: concurrent explains and appends against one
// table over HTTP — appends must land atomically under copy-on-write
// snapshots while queries stream, with every response well-formed. Runs
// under TSan in CI.
TEST(RestApiTest, ConcurrentExplainAndAppendOnOneTable) {
  ServerWorld w;
  constexpr int kQueryThreads = 3;
  constexpr int kQueriesEach = 3;
  constexpr int kAppends = 4;

  const std::shared_ptr<const Table> schema =
      w.service.GetTable("synthetic");
  const std::string append_body =
      "{\"rows\":[" + MakeRowJson(*schema) + "]}";
  const size_t base_rows = schema->NumRows();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + 1);
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", w.server.port());
      for (int i = 0; i < kQueriesEach; ++i) {
        const auto r = client.Request("POST", "/v1/explain", w.ExplainBody());
        if (r.status != 200 ||
            r.body.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    HttpClient client("127.0.0.1", w.server.port());
    for (int i = 0; i < kAppends; ++i) {
      const auto r =
          client.Request("POST", "/v1/tables/synthetic/append", append_body);
      if (r.status != 200) failures.fetch_add(1);
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(w.service.GetTable("synthetic")->NumRows(),
            base_rows + kAppends);
  EXPECT_EQ(w.service.TableVersion("synthetic"),
            static_cast<uint64_t>(kAppends));

  // After the dust settles: the grown table's answer over HTTP is
  // bit-identical to a from-scratch direct run on the final snapshot.
  CauSumXConfig config;
  config.grouping_attribute_allowlist = w.ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = w.ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  config.num_threads = 1;
  const std::shared_ptr<const Table> grown =
      w.service.GetTable("synthetic");
  const CausalDag dag =
      MakeNoDag(*grown, w.ds.default_query.avg_attribute);
  const CauSumXResult direct =
      RunCauSumX(*grown, w.ds.default_query, dag, config);

  HttpClient client("127.0.0.1", w.server.port());
  const auto r = client.Request("POST", "/v1/explain", w.ExplainBody());
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(ExtractSummary(r.body),
            SummaryToJson(direct.summary, &w.ds.default_query));
}

// ---- the monitor surface ---------------------------------------------------

// A server with the windowed-monitor registry mounted (the two-argument
// MakeRestHandler overload) over a small categorical/double table.
struct MonitorServerWorld {
  ExplanationService service;
  MonitorRegistry monitors;
  HttpServer server;

  MonitorServerWorld()
      : monitors(service),
        server(MakeRestHandler(service, monitors),
               ServerWorld::MakeOptions()) {
    Table t;
    t.AddColumn("grp", ColumnType::kCategorical);
    t.AddColumn("trt", ColumnType::kCategorical);
    t.AddColumn("val", ColumnType::kDouble);
    service.RegisterTable("t", std::make_shared<const Table>(std::move(t)));
    server.Start();
  }
  ~MonitorServerWorld() { server.Stop(); }

  /// A tumbling 20-row monitor spec over the registered table, loose
  /// enough that every window emits a summary.
  static std::string Spec() {
    return "{\"table\":\"t\",\"group_by\":[\"grp\"],\"avg\":\"val\","
           "\"dag_text\":\"trt -> val\\n\",\"grouping_attrs\":[\"grp\"],"
           "\"treatment_attrs\":[\"trt\"],\"alpha\":0.99,"
           "\"min_group_size\":3,\"support\":0.1,"
           "\"emit_summaries\":true,"
           "\"window\":{\"kind\":\"tumbling\",\"size_rows\":20}}";
  }

  /// One append body of `n` rows split across two groups, half treated.
  static std::string AppendBody(size_t n) {
    JsonWriter w;
    w.BeginObject().Key("rows").BeginArray();
    for (size_t i = 0; i < n; ++i) {
      w.BeginArray()
          .String(i % 2 == 0 ? "g1" : "g2")
          .String(i % 4 < 2 ? "hi" : "lo")
          .Double(i % 4 < 2 ? 9.0 + static_cast<double>(i % 3)
                            : 1.0 + static_cast<double>(i % 3))
          .EndArray();
    }
    w.EndArray().EndObject();
    return w.str();
  }
};

TEST(RestApiMonitorTest, CreateListGetDeleteLifecycle) {
  MonitorServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());

  const auto created =
      client.Request("POST", "/v1/monitors", MonitorServerWorld::Spec());
  ASSERT_EQ(created.status, 201);
  const JsonValue created_json = JsonValue::Parse(created.body);
  EXPECT_EQ(created_json.GetString("id", ""), "m1");
  EXPECT_EQ(created_json.Find("status")->GetNumber("rows_observed", -1), 0);

  const auto list = client.Request("GET", "/v1/monitors");
  ASSERT_EQ(list.status, 200);
  EXPECT_EQ(JsonValue::Parse(list.body).AsArray().size(), 1u);

  const auto got = client.Request("GET", "/v1/monitors/m1");
  ASSERT_EQ(got.status, 200);
  const JsonValue got_json = JsonValue::Parse(got.body);
  EXPECT_EQ(got_json.Find("status")->GetString("table", ""), "t");
  EXPECT_EQ(got_json.Find("spec")->GetString("avg", ""), "val");

  // Typed failures: unknown id, unregistered table, malformed spec,
  // wrong method.
  EXPECT_EQ(client.Request("GET", "/v1/monitors/nope").status, 404);
  EXPECT_EQ(client
                .Request("POST", "/v1/monitors",
                         "{\"table\":\"ghost\",\"group_by\":[\"g\"],"
                         "\"avg\":\"v\",\"window\":{\"size_rows\":5}}")
                .status,
            404);
  EXPECT_EQ(client.Request("POST", "/v1/monitors", "{no spec").status, 400);
  const struct {
    const char* member;
    const char* field;  // named, quoted, in the error
  } kBad[] = {{"\"k\":-1,", "k"},
              {"\"k\":1.5,", "k"},
              {"\"k\":1e30,", "k"},
              {"\"num_threads\":8,", "num_threads"},
              {"\"num_shards\":2,", "num_shards"},
              {"\"compression\":\"always\",", "compression"},
              {"\"max_events\":65537,", "max_events"}};
  for (const auto& bad : kBad) {
    const auto r = client.Request(
        "POST", "/v1/monitors",
        "{" + std::string(bad.member) + MonitorServerWorld::Spec().substr(1));
    EXPECT_EQ(r.status, 400) << bad.member;
    EXPECT_NE(JsonValue::Parse(r.body).GetString("error").find(
                  std::string("\"") + bad.field + "\""),
              std::string::npos)
        << r.body;
  }
  EXPECT_EQ(client.Request("PUT", "/v1/monitors").status, 405);

  EXPECT_EQ(client.Request("DELETE", "/v1/monitors/m1").status, 200);
  EXPECT_EQ(client.Request("DELETE", "/v1/monitors/m1").status, 404);
  const auto drained = client.Request("GET", "/v1/monitors");
  EXPECT_EQ(JsonValue::Parse(drained.body).AsArray().size(), 0u);
}

TEST(RestApiMonitorTest, AppendsDriveEventsAndLongPollOverHttp) {
  MonitorServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());

  const auto created =
      client.Request("POST", "/v1/monitors", MonitorServerWorld::Spec());
  ASSERT_EQ(created.status, 201);

  // Two appends of 20 rows = two tumbling windows = two summary events.
  for (int i = 0; i < 2; ++i) {
    const auto appended = client.Request(
        "POST", "/v1/tables/t/append", MonitorServerWorld::AppendBody(20));
    ASSERT_EQ(appended.status, 200);
  }

  const auto all = client.Request("GET", "/v1/monitors/m1/events");
  ASSERT_EQ(all.status, 200);
  const JsonValue all_json = JsonValue::Parse(all.body);
  ASSERT_EQ(all_json.Find("events")->AsArray().size(), 2u);
  EXPECT_EQ(all_json.Find("events")->AsArray()[0].GetNumber("seq", -1), 1);
  EXPECT_EQ(all_json.Find("events")->AsArray()[1].GetNumber("seq", -1), 2);
  EXPECT_EQ(all_json.GetNumber("next_since", -1), 2);

  // Tailing from next_since returns nothing new; from 1, just seq 2. A
  // long-poll with events already pending returns immediately.
  const auto tail =
      client.Request("GET", "/v1/monitors/m1/events?since=2");
  EXPECT_EQ(JsonValue::Parse(tail.body).Find("events")->AsArray().size(),
            0u);
  EXPECT_EQ(JsonValue::Parse(tail.body).GetNumber("next_since", -1), 2);
  const auto from_one =
      client.Request("GET", "/v1/monitors/m1/events?since=1");
  ASSERT_EQ(
      JsonValue::Parse(from_one.body).Find("events")->AsArray().size(), 1u);
  const auto polled = client.Request(
      "GET", "/v1/monitors/m1/events?since=1&timeout_ms=5000");
  ASSERT_EQ(polled.status, 200);
  EXPECT_EQ(JsonValue::Parse(polled.body).Find("events")->AsArray().size(),
            1u);

  EXPECT_EQ(
      client.Request("GET", "/v1/monitors/m1/events?since=banana").status,
      400);

  // The monitor status over HTTP reflects the stream.
  const auto got = client.Request("GET", "/v1/monitors/m1");
  const JsonValue status = *JsonValue::Parse(got.body).Find("status");
  EXPECT_EQ(status.GetNumber("rows_observed", -1), 40);
  EXPECT_EQ(status.GetNumber("windows_evaluated", -1), 2);
  EXPECT_EQ(status.GetNumber("last_seq", -1), 2);
}

TEST(RestApiMonitorTest, MonitorRoutesAbsentWithoutRegistry) {
  // The single-argument MakeRestHandler overload does not mount the
  // monitor surface: the routes 404 like any unknown path.
  ServerWorld w;
  HttpClient client("127.0.0.1", w.server.port());
  EXPECT_EQ(client.Request("GET", "/v1/monitors").status, 404);
  EXPECT_EQ(client
                .Request("POST", "/v1/monitors",
                         MonitorServerWorld::Spec())
                .status,
            404);
}

TEST(RestApiMonitorTest, StatsServeMonitorCountersOnlyWhenMounted) {
  MonitorServerWorld mounted;
  HttpClient client("127.0.0.1", mounted.server.port());
  const JsonValue with = JsonValue::Parse(
      client.Request("GET", "/v1/stats").body);
  const JsonValue* monitors = with.Find("monitors");
  ASSERT_NE(monitors, nullptr);
  EXPECT_EQ(monitors->GetNumber("skipped_on_restore", -1), 0);

  ServerWorld plain;
  HttpClient plain_client("127.0.0.1", plain.server.port());
  const JsonValue without = JsonValue::Parse(
      plain_client.Request("GET", "/v1/stats").body);
  EXPECT_EQ(without.Find("monitors"), nullptr);
}

}  // namespace
}  // namespace causumx
