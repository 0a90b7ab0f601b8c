// Tests for the shared explain-request spec (src/service/explain_spec.h):
// every field's shape and range is validated with an error naming the
// field, unknown keys (num_threads among them) are rejected, the DAG
// sources resolve in their stated priority, and one spec sent through a
// JSONL batch line, POST /v1/explain, POST /v1/monitors and the CLI's
// flag texts binds to the same query, DAG and configuration.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "causal/dag_io.h"
#include "causal/discovery.h"
#include "core/causumx.h"
#include "core/json_export.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/rest_api.h"
#include "service/batch.h"
#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "storage/file_io.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace causumx {
namespace {

// A small table with a planted treatment effect: Y rises with T = "hi"
// and with A, differently per group G.
Table MakeTable() {
  Table t;
  t.AddColumn("G", ColumnType::kCategorical);
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("A", ColumnType::kDouble);
  t.AddColumn("Y", ColumnType::kDouble);
  for (size_t i = 0; i < 240; ++i) {
    const std::string g = i % 3 == 0 ? "g1" : (i % 3 == 1 ? "g2" : "g3");
    const bool hi = (i / 3) % 2 == 0;
    const double a = static_cast<double>(i % 7);
    const double y = (hi ? 10.0 + static_cast<double>(i % 3) * 4.0 : 2.0) +
                     0.5 * a + static_cast<double>(i % 5) * 0.1;
    t.AddRow({Value(g), Value(hi ? "hi" : "lo"), Value(a), Value(y)});
  }
  return t;
}

// The error a spec document draws from ExplainSpec::Parse ("" if none).
std::string ParseError(const std::string& json) {
  try {
    ExplainSpec::Parse(JsonValue::Parse(json));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void ExpectSameBinding(const BoundExplain& a, const BoundExplain& b) {
  EXPECT_EQ(a.query.group_by, b.query.group_by);
  EXPECT_EQ(a.query.avg_attribute, b.query.avg_attribute);
  EXPECT_EQ(a.query.where.ToString(), b.query.where.ToString());
  EXPECT_EQ(DagToText(a.dag), DagToText(b.dag));
  EXPECT_EQ(a.config.k, b.config.k);
  EXPECT_EQ(a.config.theta, b.config.theta);
  EXPECT_EQ(a.config.apriori_support, b.config.apriori_support);
  EXPECT_EQ(a.config.treatment.alpha, b.config.treatment.alpha);
  EXPECT_EQ(a.config.grouping_attribute_allowlist,
            b.config.grouping_attribute_allowlist);
  EXPECT_EQ(a.config.treatment_attribute_allowlist,
            b.config.treatment_attribute_allowlist);
  EXPECT_EQ(a.config.grouping.include_per_group_patterns,
            b.config.grouping.include_per_group_patterns);
  EXPECT_EQ(a.config.estimator.min_group_size,
            b.config.estimator.min_group_size);
}

// A scratch file removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& contents) {
    char buf[] = "/tmp/causumx_spec_XXXXXX";
    const int fd = ::mkstemp(buf);
    EXPECT_GE(fd, 0);
    ::close(fd);
    path = buf;
    WriteFileDurable(path, contents);
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(ExplainSpecTest, EveryBadFieldIsRejectedByName) {
  const struct {
    const char* member;  // spliced into a valid request
    const char* field;   // must appear, quoted, in the error
  } kCases[] = {
      {"\"table\":1", "table"},
      {"\"csv\":[]", "csv"},
      {"\"group_by\":5", "group_by"},
      {"\"group_by\":[1]", "group_by"},
      {"\"group_by\":\"G,,T\"", "group_by"},
      {"\"avg\":2", "avg"},
      {"\"where\":false", "where"},
      {"\"dag_text\":1", "dag_text"},
      {"\"dag\":null", "dag"},
      {"\"discover\":\"magic\"", "discover"},
      {"\"discover\":7", "discover"},
      {"\"k\":-1", "k"},
      {"\"k\":0", "k"},
      {"\"k\":1.5", "k"},
      {"\"k\":1e30", "k"},
      {"\"k\":\"5\"", "k"},
      {"\"theta\":2", "theta"},
      {"\"theta\":-0.1", "theta"},
      {"\"theta\":\"x\"", "theta"},
      {"\"support\":0", "support"},
      {"\"support\":1.5", "support"},
      {"\"alpha\":0", "alpha"},
      {"\"alpha\":1", "alpha"},
      {"\"grouping_attrs\":5", "grouping_attrs"},
      {"\"grouping_attrs\":[\"G\",\"\"]", "grouping_attrs"},
      {"\"treatment_attrs\":true", "treatment_attrs"},
      {"\"per_group_patterns\":\"yes\"", "per_group_patterns"},
      {"\"min_group_size\":0", "min_group_size"},
      {"\"min_group_size\":2.5", "min_group_size"},
      {"\"num_threads\":8", "num_threads"},
      {"\"bogus\":1", "bogus"},
  };
  for (const auto& c : kCases) {
    // The bad member beside otherwise valid required fields.
    const std::string field = c.field;
    const std::string json =
        std::string("{") + (field == "avg" ? "" : "\"avg\":\"Y\",") +
        (field == "group_by" ? "" : "\"group_by\":[\"G\"],") + c.member +
        "}";
    const std::string error = ParseError(json);
    EXPECT_NE(error.find(std::string("\"") + c.field + "\""),
              std::string::npos)
        << json << " -> " << (error.empty() ? "accepted" : error);
  }
  EXPECT_NE(ParseError("{\"avg\":\"Y\"}").find("group_by"), std::string::npos);
  EXPECT_NE(ParseError("{\"group_by\":\"G\"}").find("avg"), std::string::npos);
  EXPECT_NE(ParseError("[1]"), "");
  // The spec accepts its own fields and nothing its caller did not name.
  EXPECT_EQ(ParseError("{\"group_by\":\"G, T\",\"avg\":\"Y\",\"k\":3,"
                       "\"theta\":1,\"support\":1,\"alpha\":0.5,"
                       "\"discover\":\"NoDag\",\"grouping_attrs\":\"\"}"),
            "");
  EXPECT_THROW(ParseQueryRequest(JsonValue::Parse(
                   "{\"group_by\":\"G\",\"avg\":\"Y\",\"window\":{}}")),
               std::runtime_error);
  // Row shards and segment compression are the engine's to choose: a
  // monitor spec carrying either names it in the error.
  for (const std::string field : {"num_shards", "compression"}) {
    try {
      MonitorSpec::Parse("{\"table\":\"t\",\"group_by\":\"G\",\"avg\":\"Y\","
                         "\"window\":{\"size_rows\":10},\"" +
                         field + "\":2}");
      ADD_FAILURE() << field << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(ParseQueryRequest(JsonValue::Parse(
      "{\"id\":\"q\",\"op\":\"query\",\"group_by\":\"G\",\"avg\":\"Y\"}")));
}

TEST(ExplainSpecTest, DagSourcesFollowTheirPriority) {
  const Table t = MakeTable();
  const TempFile file("A -> Y\n");
  const std::string dag_text = "T -> Y\\n";
  auto bind = [&t](const std::string& members) {
    return DagToText(
        ExplainSpec::Parse(JsonValue::Parse(
                               "{\"group_by\":\"G\",\"avg\":\"Y\"" +
                               members + "}"))
            .Bind(t)
            .dag);
  };
  const std::string path = ",\"dag\":\"" + file.path + "\"";
  EXPECT_EQ(bind(",\"dag_text\":\"" + dag_text + "\"" + path +
                 ",\"discover\":\"pc\""),
            DagToText(ParseDagText("T -> Y\n")));
  EXPECT_EQ(bind(path + ",\"discover\":\"pc\""),
            DagToText(ReadDagFile(file.path)));
  EXPECT_EQ(bind(",\"discover\":\"pc\""),
            DagToText(DiscoverDag(t, DiscoveryAlgorithm::kPc, "Y")));
  EXPECT_EQ(bind(",\"discover\":\"nodag\""), DagToText(MakeNoDag(t, "Y")));
  EXPECT_EQ(bind(""), DagToText(MakeNoDag(t, "Y")));
}

// One spec, four surfaces: a JSONL batch line, POST /v1/explain, the
// creation-time binding of POST /v1/monitors, and the CLI's flag texts
// bind identically — and the REST answer (dag_text and min_group_size
// included, which only monitors accepted before) equals a direct run
// of the monitor's binding.
TEST(ExplainSpecTest, EverySurfaceBindsTheSameSpec) {
  const Table table = MakeTable();
  const std::string members =
      "\"table\":\"t\",\"group_by\":[\"G\"],\"avg\":\"Y\","
      "\"where\":\"A>=1\",\"dag_text\":\"T -> Y\\nA -> Y\\n\","
      "\"k\":2,\"theta\":0.5,\"support\":0.2,\"alpha\":0.9,"
      "\"grouping_attrs\":[\"G\"],\"treatment_attrs\":\"T\","
      "\"per_group_patterns\":false,\"min_group_size\":4";
  const std::string request = "{\"id\":\"same\"," + members + "}";

  const BoundExplain batch =
      ParseQueryRequest(JsonValue::Parse(request)).Bind(table);
  const BoundExplain monitor =
      MonitorSpec::Parse("{" + members +
                         ",\"window\":{\"size_rows\":60}}")
          .explain.Bind(table);
  ExpectSameBinding(batch, monitor);
  // ... and that binding carries every field of the request.
  EXPECT_EQ(batch.query.group_by, std::vector<std::string>{"G"});
  EXPECT_EQ(batch.query.avg_attribute, "Y");
  EXPECT_EQ(batch.query.where.ToString(),
            Pattern({ParseWherePredicate("A>=1", table)}).ToString());
  EXPECT_EQ(DagToText(batch.dag), DagToText(ParseDagText("T -> Y\nA -> Y\n")));
  EXPECT_EQ(batch.config.k, 2u);
  EXPECT_EQ(batch.config.theta, 0.5);
  EXPECT_EQ(batch.config.apriori_support, 0.2);
  EXPECT_EQ(batch.config.treatment.alpha, 0.9);
  EXPECT_EQ(batch.config.grouping_attribute_allowlist,
            std::vector<std::string>{"G"});
  EXPECT_EQ(batch.config.treatment_attribute_allowlist,
            std::vector<std::string>{"T"});
  EXPECT_FALSE(batch.config.grouping.include_per_group_patterns);
  EXPECT_EQ(batch.config.estimator.min_group_size, 4u);

  ExplanationService service;
  service.RegisterTable("t", std::make_shared<const Table>(table.Clone()));
  MonitorRegistry monitors(service);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  HttpServer server(MakeRestHandler(service, monitors), http);
  server.Start();
  HttpClient client("127.0.0.1", server.port());

  CauSumXConfig serial = monitor.config;
  serial.num_threads = 1;
  const std::string expected = SummaryToJson(
      RunCauSumX(table, monitor.query, monitor.dag, serial).summary,
      &monitor.query);
  ASSERT_NE(expected.find("\"explanations\":[{"), std::string::npos)
      << "the spec should explain something: " << expected;
  const auto explained = client.Request("POST", "/v1/explain", request);
  ASSERT_EQ(explained.status, 200) << explained.body;
  EXPECT_EQ(explained.body.substr(explained.body.find("\"summary\":") + 10),
            expected + "}");
  const auto batched = client.Request("POST", "/v1/batch", request);
  ASSERT_EQ(batched.status, 200);
  EXPECT_NE(batched.body.find("\"summary\":" + expected + "}\n"),
            std::string::npos)
      << batched.body;
  EXPECT_EQ(client
                .Request("POST", "/v1/monitors",
                         "{" + members + ",\"window\":{\"size_rows\":60}}")
                .status,
            201);
  server.Stop();

  // The CLI carries flag texts (--group-by G --avg Y --k 2 ...); it has
  // no dag_text, allowlist or min_group_size flags, so compare the
  // fields it can express against the same request.
  const TempFile dag("T -> Y\nA -> Y\n");
  const BoundExplain cli =
      ExplainSpec::FromText({{"group_by", "G"},
                             {"avg", "Y"},
                             {"where", "A>=1"},
                             {"dag", dag.path},
                             {"k", "2"},
                             {"theta", "0.5"},
                             {"support", "0.2"},
                             {"alpha", "0.9"}})
          .Bind(table);
  const BoundExplain json =
      ExplainSpec::Parse(
          JsonValue::Parse("{\"group_by\":[\"G\"],\"avg\":\"Y\","
                           "\"where\":\"A>=1\",\"dag\":\"" + dag.path +
                           "\",\"k\":2,\"theta\":0.5,\"support\":0.2,"
                           "\"alpha\":0.9}"))
          .Bind(table);
  ExpectSameBinding(cli, json);
  EXPECT_EQ(DagToText(cli.dag), DagToText(batch.dag));
  EXPECT_THROW(ExplainSpec::FromText({{"group_by", "G"},
                                      {"avg", "Y"},
                                      {"k", "5abc"}}),
               std::runtime_error);
}

// Over every remote surface, a bad field is a 400 (per line for
// /v1/batch, whose response carries one result per request) whose
// message names the field.
TEST(ExplainSpecTest, RemoteSurfacesRejectBadFieldsByName) {
  ExplanationService service;
  service.RegisterTable("t",
                        std::make_shared<const Table>(MakeTable()));
  MonitorRegistry monitors(service);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  HttpServer server(MakeRestHandler(service, monitors), http);
  server.Start();
  HttpClient client("127.0.0.1", server.port());

  const struct {
    const char* member;
    const char* field;
  } kCases[] = {{"\"k\":-1", "k"},         {"\"k\":0", "k"},
                {"\"k\":1.5", "k"},        {"\"theta\":2", "theta"},
                {"\"num_threads\":8", "num_threads"},
                {"\"num_shards\":2", "num_shards"},
                {"\"compression\":\"always\"", "compression"},
                {"\"frobnicate\":true", "frobnicate"}};
  for (const auto& c : kCases) {
    const std::string quoted = std::string("\"") + c.field + "\"";
    const std::string query =
        std::string("{\"table\":\"t\",\"group_by\":[\"G\"],\"avg\":\"Y\",") +
        c.member + "}";
    const auto explain = client.Request("POST", "/v1/explain", query);
    EXPECT_EQ(explain.status, 400) << c.member;
    EXPECT_NE(JsonValue::Parse(explain.body).GetString("error").find(quoted),
              std::string::npos)
        << explain.body;

    const auto batch = client.Request("POST", "/v1/batch", query);
    const JsonValue line = JsonValue::Parse(Trim(batch.body));
    EXPECT_FALSE(line.GetBool("ok", true)) << c.member;
    EXPECT_NE(line.GetString("error").find(quoted), std::string::npos)
        << batch.body;

    const std::string spec =
        std::string("{\"table\":\"t\",\"group_by\":[\"G\"],\"avg\":\"Y\","
                    "\"window\":{\"size_rows\":10},") +
        c.member + "}";
    const auto created = client.Request("POST", "/v1/monitors", spec);
    EXPECT_EQ(created.status, 400) << c.member;
    EXPECT_NE(JsonValue::Parse(created.body).GetString("error").find(quoted),
              std::string::npos)
        << created.body;
  }
  server.Stop();
}

}  // namespace
}  // namespace causumx
