// Differential property harness for the windowed-retention stream
// layer (src/stream/): on seeded random tables, a StreamMonitor fed
// random append schedules must produce, at every window boundary, a
// summary bit-identical to a from-scratch CauSumX run over exactly the
// surviving rows — for tumbling and sliding windows. The engine-level
// retraction path (Table::Tail + the derivation constructors) is also
// checked directly against cold rebuilds, at shard counts 1-16,
// including engines grown by an append before they retract (a window
// engine's life cycle).
//
// The suite runs 50 seeds x 2 window kinds = 100 randomized schedules,
// each validating every evaluated window; CI executes it under
// ASan+UBSan and TSan.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "core/causumx.h"
#include "core/json_export.h"
#include "dataset/group_query.h"
#include "engine/eval_engine.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/rng.h"

namespace causumx {
namespace {

struct RandomWorld {
  std::shared_ptr<Table> table;
  std::vector<SimplePredicate> atoms;
};

// Mixed-type table with ~5% nulls; sized for several windows of 48-80
// rows so every schedule crosses multiple boundaries.
RandomWorld MakeWorld(uint64_t seed, size_t rows) {
  RandomWorld w;
  Rng rng(seed);
  w.table = std::make_shared<Table>();
  w.table->AddColumn("g1", ColumnType::kCategorical);
  w.table->AddColumn("g2", ColumnType::kCategorical);
  w.table->AddColumn("t1", ColumnType::kCategorical);
  w.table->AddColumn("i1", ColumnType::kInt64);
  w.table->AddColumn("y", ColumnType::kDouble);
  const char* g1_vals[] = {"a", "b", "c"};
  const char* g2_vals[] = {"x", "y"};
  const char* t1_vals[] = {"lo", "hi"};
  for (size_t r = 0; r < rows; ++r) {
    w.table->AddRow({
        rng.NextBool(0.05) ? Value() : Value(g1_vals[rng.NextBounded(3)]),
        rng.NextBool(0.05) ? Value() : Value(g2_vals[rng.NextBounded(2)]),
        rng.NextBool(0.05) ? Value() : Value(t1_vals[rng.NextBounded(2)]),
        rng.NextBool(0.05) ? Value() : Value(rng.NextInt(0, 9)),
        rng.NextBool(0.05) ? Value()
                           : Value(rng.NextGaussian() * 3.0 +
                                   rng.NextDouble()),
    });
  }
  w.atoms = {
      SimplePredicate("g1", CompareOp::kEq, Value("a")),
      SimplePredicate("g2", CompareOp::kEq, Value("x")),
      SimplePredicate("t1", CompareOp::kEq, Value("hi")),
      SimplePredicate("i1", CompareOp::kLt, Value(int64_t{5})),
      SimplePredicate("i1", CompareOp::kGe, Value(int64_t{2})),
      SimplePredicate("y", CompareOp::kGt, Value(0.0)),
  };
  return w;
}

// The monitor spec shared by every schedule; knobs loose enough that
// small windows still yield explanations (so the diffs are nontrivial).
std::string MakeSpec(WindowSpec::Kind kind, size_t window_rows,
                     size_t slide_rows) {
  JsonWriter w;
  w.BeginObject()
      .Key("table").String("t")
      .Key("group_by").BeginArray().String("g1").EndArray()
      .Key("avg").String("y")
      .Key("dag_text").String("t1 -> y\ni1 -> y\n")
      .Key("grouping_attrs").BeginArray().String("g2").EndArray()
      .Key("k").Uint(3)
      .Key("theta").Double(0.4)
      .Key("support").Double(0.05)
      .Key("alpha").Double(0.9)
      .Key("min_group_size").Uint(3)
      .Key("emit_summaries").Bool(true);
  w.Key("window").BeginObject()
      .Key("kind")
      .String(kind == WindowSpec::Kind::kTumbling ? "tumbling" : "sliding")
      .Key("size_rows").Uint(window_rows)
      .Key("slide_rows").Uint(slide_rows)
      .EndObject();
  w.EndObject();
  return w.str();
}

// The reference configuration matching MakeSpec, at the serial
// single-shard baseline (bit-identical to any shard count by the
// sharded differential property).
CauSumXConfig ReferenceConfig() {
  CauSumXConfig config;
  config.k = 3;
  config.theta = 0.4;
  config.apriori_support = 0.05;
  config.treatment.alpha = 0.9;
  config.estimator.min_group_size = 3;
  config.grouping_attribute_allowlist = {"g2"};
  config.num_threads = 1;
  return config;
}

// Extracts the raw SummaryToJson payload a "summary" event spliced in
// (the event's last member, so it runs to the closing brace).
std::string SummaryPayload(const std::string& event_json) {
  static const std::string kMarker = "\"summary\":";
  const size_t at = event_json.find(kMarker);
  EXPECT_NE(at, std::string::npos) << event_json;
  if (at == std::string::npos) return "";
  return event_json.substr(at + kMarker.size(),
                           event_json.size() - at - kMarker.size() - 1);
}

// From-scratch rebuild of the surviving rows [begin, end): a fresh
// table (fresh dictionaries in first-appearance order) through a cold
// serial CauSumX run.
std::string FromScratchSummary(const RandomWorld& w, size_t begin,
                               size_t end) {
  Table rebuilt;
  for (size_t c = 0; c < w.table->NumColumns(); ++c) {
    rebuilt.AddColumn(w.table->column(c).name(), w.table->column(c).type());
  }
  rebuilt.AppendRows(w.table->MaterializeRows(begin, end));
  GroupByAvgQuery q;
  q.group_by = {"g1"};
  q.avg_attribute = "y";
  CausalDag dag;
  dag.AddEdge("t1", "y");
  dag.AddEdge("i1", "y");
  const CauSumXResult r = RunCauSumX(rebuilt, q, dag, ReferenceConfig());
  return SummaryToJson(r.summary, &q);
}

// One full schedule: stream the world's rows into a monitor in random
// batches and check every evaluated window against the from-scratch
// rebuild of exactly its surviving rows.
void RunSchedule(uint64_t seed, WindowSpec::Kind kind) {
  Rng rng(seed);
  const size_t window_rows = 48 + rng.NextBounded(33);  // 48..80
  const size_t slide_rows = kind == WindowSpec::Kind::kTumbling
                                ? window_rows
                                : 1 + rng.NextBounded(window_rows);
  const size_t boundaries = 3 + rng.NextBounded(2);
  const size_t total = window_rows + slide_rows * (boundaries - 1) +
                       rng.NextBounded(slide_rows);
  const RandomWorld w = MakeWorld(seed * 101 + 11, total);

  StreamMonitor monitor(
      "m-test",
      MonitorSpec::Parse(
          MakeSpec(kind, window_rows, slide_rows)),
      *w.table, /*mining_pool=*/nullptr);

  // Random append schedule: batch sizes from 1 to ~1.5 windows, so some
  // appends cross several boundaries in one call and some windows are
  // assembled one row at a time.
  size_t at = 0;
  while (at < total) {
    const size_t batch =
        1 + rng.NextBounded(window_rows + window_rows / 2);
    const size_t end = std::min(total, at + batch);
    monitor.OnAppend(w.table->MaterializeRows(at, end));
    at = end;
  }

  const MonitorStatus status = monitor.Status();
  const size_t expected_windows = (total - window_rows) / slide_rows + 1;
  ASSERT_EQ(status.windows_evaluated, expected_windows)
      << "kind=" << static_cast<int>(kind) << " W=" << window_rows
      << " S=" << slide_rows << " total=" << total;
  ASSERT_EQ(status.rows_observed, total);
  // The resident window never exceeds one window plus the pre-boundary
  // slack of one slide.
  ASSERT_LE(status.window_rows, window_rows + slide_rows);

  size_t checked = 0;
  for (const MonitorEvent& e : monitor.EventsSince(0)) {
    const JsonValue parsed = JsonValue::Parse(e.json);
    if (parsed.GetString("type") != "summary") continue;
    const size_t begin =
        static_cast<size_t>(parsed.GetNumber("window_begin", -1));
    const size_t end =
        static_cast<size_t>(parsed.GetNumber("window_end", -1));
    ASSERT_EQ(end - begin, window_rows);
    EXPECT_EQ(SummaryPayload(e.json), FromScratchSummary(w, begin, end))
        << "window [" << begin << ", " << end << ")";
    ++checked;
  }
  ASSERT_EQ(checked, expected_windows);
}

class WindowedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowedPropertyTest, TumblingMatchesFromScratch) {
  RunSchedule(GetParam() * 7 + 1, WindowSpec::Kind::kTumbling);
}

TEST_P(WindowedPropertyTest, SlidingMatchesFromScratch) {
  RunSchedule(GetParam() * 13 + 3, WindowSpec::Kind::kSliding);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{51}));

// ---- engine-level retraction properties ------------------------------------

class RetractPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// A warm engine retracted by a random prefix must answer every pattern
// exactly like a cache-bypass engine over the tail table, and its byte
// accounting must shrink (expiry may never leak resident bytes).
TEST_P(RetractPropertyTest, RetractedEngineMatchesColdTail) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31 + 5);
  const size_t rows = 150 + rng.NextBounded(300);
  const RandomWorld w = MakeWorld(seed * 131 + 17, rows);
  const size_t shards = 1 + rng.NextBounded(16);

  EvalEngineOptions options;
  options.cache_enabled = true;
  options.num_shards = shards;
  rng.NextBool(0.5);  // keeps the seed's later draws (grow, drop) fixed
  // Half the seeds grow the engine by an append before it retracts, as
  // a monitor's window engine does.
  std::shared_ptr<const Table> table = w.table;
  std::shared_ptr<EvalEngine> engine;
  if (rng.NextBool(0.5)) {
    const size_t head = rows / 2;
    auto base = std::make_shared<const Table>(w.table->Head(head));
    engine = std::make_shared<EvalEngine>(base, options);
    for (const auto& atom : w.atoms) engine->Evaluate(Pattern({atom}));
    Table grown = base->Clone();
    grown.AppendRows(w.table->MaterializeRows(head, rows));
    table = std::make_shared<const Table>(std::move(grown));
    engine = std::make_shared<EvalEngine>(table, *engine);
  } else {
    engine = std::make_shared<EvalEngine>(table, options);
  }
  for (const auto& atom : w.atoms) engine->Evaluate(Pattern({atom}));
  engine->Numeric(*table->ColumnIndex("y"));
  const size_t warm_bytes = engine->CacheBytes();

  const size_t drop = 1 + rng.NextBounded(rows / 2);
  auto tail = std::make_shared<const Table>(table->Tail(drop));
  auto retracted = std::make_shared<EvalEngine>(tail, *engine, drop);

  EXPECT_LE(retracted->CacheBytes(), warm_bytes)
      << "retraction grew resident bytes (drop=" << drop << ")";

  EvalEngine bypass(tail, EvalEngineOptions{.cache_enabled = false});
  for (const auto& atom : w.atoms) {
    const Pattern p({atom});
    ASSERT_TRUE(retracted->Evaluate(p) == bypass.Evaluate(p))
        << "drop=" << drop << " shards=" << shards << " " << p.ToString();
  }
  for (size_t i = 0; i < w.atoms.size(); ++i) {
    for (size_t j = i + 1; j < w.atoms.size(); ++j) {
      const Pattern p({w.atoms[i], w.atoms[j]});
      ASSERT_TRUE(retracted->Evaluate(p) == bypass.Evaluate(p))
          << "drop=" << drop << " " << p.ToString();
    }
  }
}

// CATE estimates through a retracted context must be bit-identical to a
// fresh context over the tail table (carried memo entries included).
TEST_P(RetractPropertyTest, RetractedContextMatchesFreshEstimates) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 37 + 7);
  const size_t rows = 150 + rng.NextBounded(300);
  const RandomWorld w = MakeWorld(seed * 137 + 19, rows);

  CausalDag dag;
  dag.AddEdge("t1", "y");
  dag.AddEdge("i1", "y");
  EstimatorOptions est;
  est.min_group_size = 3;

  EvalEngineOptions options;
  options.cache_enabled = true;
  options.num_shards = 1 + rng.NextBounded(16);
  rng.NextBounded(3);  // keeps the seed's later draws fixed
  auto engine = std::make_shared<EvalEngine>(
      std::shared_ptr<const Table>(w.table), options);
  auto ctx = std::make_shared<EstimatorContext>(engine, dag, est);

  // Warm the memo over the full table.
  const Pattern treatment({w.atoms[2]});
  Bitset all(w.table->NumRows());
  all.SetAll();
  ctx->EstimateCate(treatment, "y", all);
  ctx->EstimateCate(treatment, "y", Pattern({w.atoms[0]}).Evaluate(*w.table));

  const size_t drop = 1 + rng.NextBounded(rows / 2);
  auto tail = std::make_shared<const Table>(w.table->Tail(drop));
  auto retracted_engine = std::make_shared<EvalEngine>(tail, *engine, drop);
  EstimatorContext retracted(retracted_engine, *ctx, drop);

  auto fresh_engine = std::make_shared<EvalEngine>(tail, options);
  EstimatorContext fresh(fresh_engine, dag, est);

  Bitset tail_all(tail->NumRows());
  tail_all.SetAll();
  const std::vector<Bitset> subpops = {
      tail_all,
      Pattern({w.atoms[0]}).Evaluate(*tail),
      Pattern({w.atoms[1]}).Evaluate(*tail),
  };
  for (const Bitset& subpop : subpops) {
    const EffectEstimate a = retracted.EstimateCate(treatment, "y", subpop);
    const EffectEstimate b = fresh.EstimateCate(treatment, "y", subpop);
    EXPECT_EQ(a.valid, b.valid) << "drop=" << drop;
    EXPECT_EQ(a.cate, b.cate) << "drop=" << drop;
    EXPECT_EQ(a.std_error, b.std_error) << "drop=" << drop;
    EXPECT_EQ(a.p_value, b.p_value) << "drop=" << drop;
    EXPECT_EQ(a.n_used, b.n_used) << "drop=" << drop;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetractPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

}  // namespace
}  // namespace causumx
