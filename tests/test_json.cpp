// Tests for the minimal JSON parser (util/json) and the service's JSONL
// batch runner (service/batch), which is its main consumer.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/batch.h"
#include "service/explanation_service.h"
#include "util/json.h"

namespace causumx {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null").is_null());
  EXPECT_EQ(JsonValue::Parse("true").AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25").AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-17").AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3").AsNumber(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse("\"a\\\"b\\\\c\\n\\t\"").AsString(),
            "a\"b\\c\n\t");
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\\u00e9\"").AsString(), "A\xc3\xa9");
}

TEST(JsonParseTest, NestedStructure) {
  const JsonValue v = JsonValue::Parse(
      "{\"a\": [1, 2, {\"b\": \"c\"}], \"d\": {\"e\": true}, \"f\": null}");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  const auto& arr = v.Find("a")->AsArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].AsNumber(), 2.0);
  EXPECT_EQ(arr[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(v.Find("d")->Find("e")->AsBool());
  EXPECT_TRUE(v.Find("f")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(v.GetString("x", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(v.GetNumber("x", 7.0), 7.0);
}

TEST(JsonParseTest, MalformedInputsThrow) {
  EXPECT_THROW(JsonValue::Parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"open"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("1 2"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{}").AsArray(), std::runtime_error);
}

// Fuzzing regressions: escape sequences truncated by end-of-input must
// come back as typed parse errors at every cut point, not reads past the
// buffer.
TEST(JsonParseTest, TruncatedEscapesThrow) {
  EXPECT_THROW(JsonValue::Parse("\"\\"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"\\u"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"\\u0"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"\\u00"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"\\u004"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("\"truncated \\u00"), std::runtime_error);
  // A high surrogate whose low half is cut off mid-escape.
  EXPECT_THROW(JsonValue::Parse("\"\\ud83d\\ud"), std::runtime_error);
}

// Fuzzing regression: the recursive-descent parser used to overflow the
// stack on a long run of '[' (remotely reachable — the HTTP server
// parses request bodies with this). Depth past the limit is now a typed
// parse error; documents at sane depths still parse.
TEST(JsonParseTest, PathologicalNestingIsAParseError) {
  EXPECT_THROW(JsonValue::Parse(std::string(100000, '[')),
               std::runtime_error);
  std::string deep_obj;
  for (int i = 0; i < 100000; ++i) deep_obj += "{\"a\":";
  EXPECT_THROW(JsonValue::Parse(deep_obj), std::runtime_error);

  // 200 levels (under the 256 cap) parses fine.
  const std::string ok =
      std::string(200, '[') + "1" + std::string(200, ']');
  EXPECT_NO_THROW(JsonValue::Parse(ok));
}

TEST(JsonParseTest, RoundTripsJsonExportOutput) {
  // The writer side (core/json_export) and this reader must agree.
  SyntheticOptions opt;
  opt.num_rows = 600;
  GeneratedDataset ds = MakeSyntheticDataset(opt);
  ExplanationService service;
  service.RegisterTable("t", std::move(ds.table));
  CauSumXConfig config;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  const CauSumXResult r =
      service.Explain("t", ds.default_query, ds.dag, config);
  const JsonValue v =
      JsonValue::Parse(SummaryToJson(r.summary, &ds.default_query));
  EXPECT_NE(v.Find("explanations"), nullptr);
  EXPECT_DOUBLE_EQ(v.GetNumber("num_groups", -1),
                   static_cast<double>(r.summary.num_groups));
}

TEST(BatchTest, ExecutesRequestsAndIsolatesFailures) {
  SyntheticOptions opt;
  opt.num_rows = 800;
  GeneratedDataset ds = MakeSyntheticDataset(opt);
  ExplanationService service;
  service.RegisterTable("synthetic", std::move(ds.table));

  std::istringstream in(
      // A valid request (the synthetic schema groups by G, averages O).
      "{\"id\": \"good\", \"table\": \"synthetic\", \"group_by\": [\"G\"], "
      "\"avg\": \"O\", \"theta\": 0.25}\n"
      "\n"  // blank lines are skipped
      "{\"id\": \"no-such-table\", \"table\": \"nope\", "
      "\"group_by\": [\"G\"], \"avg\": \"O\"}\n"
      "this is not json\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(service, in, out);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.succeeded, 1u);
  EXPECT_EQ(summary.failed, 2u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  JsonValue first = JsonValue::Parse(line);
  EXPECT_EQ(first.GetString("id"), "good");
  EXPECT_TRUE(first.GetBool("ok", false));
  EXPECT_NE(first.Find("summary"), nullptr);

  ASSERT_TRUE(std::getline(lines, line));
  JsonValue second = JsonValue::Parse(line);
  EXPECT_EQ(second.GetString("id"), "no-such-table");
  EXPECT_FALSE(second.GetBool("ok", true));
  EXPECT_FALSE(second.GetString("error").empty());

  ASSERT_TRUE(std::getline(lines, line));
  JsonValue third = JsonValue::Parse(line);
  EXPECT_FALSE(third.GetBool("ok", true));
}

TEST(BatchTest, ParseWherePredicateForms) {
  Table t;
  t.AddColumn("cat", ColumnType::kCategorical);
  t.AddColumn("num", ColumnType::kDouble);
  t.AddRow({Value("x"), Value(1.5)});

  const SimplePredicate eq = ParseWherePredicate("cat=x", t);
  EXPECT_EQ(eq.attribute, "cat");
  EXPECT_EQ(eq.op, CompareOp::kEq);
  EXPECT_EQ(eq.value.AsString(), "x");

  const SimplePredicate ge = ParseWherePredicate("num >= 2.5", t);
  EXPECT_EQ(ge.op, CompareOp::kGe);
  EXPECT_DOUBLE_EQ(ge.value.AsDouble(), 2.5);

  EXPECT_THROW(ParseWherePredicate("unknown=1", t), std::runtime_error);
  EXPECT_THROW(ParseWherePredicate("no operator", t), std::runtime_error);
  // A numeric prefix, a non-finite number, or an empty attribute or
  // value is rejected, and the error names the expression.
  for (const std::string bad : {"num>=5abc", "num>=inf", "num=nan",
                                "num<1e999", "=x", "cat=", "num <= "}) {
    try {
      ParseWherePredicate(bad, t);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
}

// ---- JsonWriter ------------------------------------------------------------

TEST(JsonWriterTest, ComposesNestedDocuments) {
  JsonWriter w;
  w.BeginObject()
      .Key("status").String("ok")
      .Key("count").Uint(3)
      .Key("delta").Int(-7)
      .Key("ratio").Double(0.5)
      .Key("flag").Bool(true)
      .Key("missing").Null()
      .Key("tables").BeginArray().String("a").String("b").EndArray()
      .Key("nested").BeginObject().Key("x").Uint(1).EndObject()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"status\":\"ok\",\"count\":3,\"delta\":-7,\"ratio\":0.5,"
            "\"flag\":true,\"missing\":null,\"tables\":[\"a\",\"b\"],"
            "\"nested\":{\"x\":1}}");
}

TEST(JsonWriterTest, EscapesStringsAndRoundTripsDoubles) {
  JsonWriter w;
  w.BeginObject().Key("s").String("a\"b\\c\nd").Key("pi").Double(
      3.141592653589793).EndObject();
  const JsonValue parsed = JsonValue::Parse(w.str());
  EXPECT_EQ(parsed.GetString("s"), "a\"b\\c\nd");
  EXPECT_EQ(parsed.GetNumber("pi", 0), 3.141592653589793);

  JsonWriter nonfinite;
  nonfinite.BeginArray().Double(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(nonfinite.str(), "[null]");
}

TEST(JsonWriterTest, RawSplicesPreserializedJson) {
  JsonWriter w;
  w.BeginObject().Key("summary").Raw("{\"k\":5}").EndObject();
  EXPECT_EQ(w.str(), "{\"summary\":{\"k\":5}}");
}

TEST(JsonWriterTest, MisuseThrows) {
  JsonWriter incomplete;
  incomplete.BeginObject();
  EXPECT_THROW(incomplete.str(), std::logic_error);

  JsonWriter keyless;
  keyless.BeginObject();
  EXPECT_THROW(keyless.Uint(1), std::logic_error);

  JsonWriter mismatched;
  mismatched.BeginArray();
  EXPECT_THROW(mismatched.EndObject(), std::logic_error);
}

}  // namespace
}  // namespace causumx
