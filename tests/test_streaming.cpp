// Streaming ingestion tests: versioned tables (AppendRows / Clone), CSV
// deltas parsed against a fixed schema, delta-extended EvalEngines,
// migrated EstimatorContexts, and the ExplanationService's copy-on-write
// Append — including the headline guarantee that append-then-query is
// bit-identical to rebuilding the table from scratch, and that appends
// land safely while queries are in flight (this suite runs under TSan
// and ASan+UBSan in CI).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "causal/estimator_context.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "dataset/csv.h"
#include "engine/eval_engine.h"
#include "service/batch.h"
#include "service/explanation_service.h"
#include "storage/file_io.h"
#include "stream/monitor.h"
#include "util/rng.h"

namespace causumx {
namespace {

// ---- Table layer -----------------------------------------------------------

Table MakeSmallTable() {
  Table t;
  t.AddColumn("cat", ColumnType::kCategorical);
  t.AddColumn("num", ColumnType::kInt64);
  t.AddColumn("val", ColumnType::kDouble);
  t.AddRow({Value("a"), Value(int64_t{1}), Value(1.5)});
  t.AddRow({Value("b"), Value(int64_t{2}), Value(2.5)});
  return t;
}

TEST(TableAppendTest, AppendRowsGrowsDictionariesAndVersions) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.version(), 0u);
  t.AppendRows({
      {Value("c"), Value(int64_t{3}), Value()},        // new dict value, null
      {Value(), Value(), Value(3.5)},                  // nulls everywhere else
      {Value("a"), Value(int64_t{4}), Value(4.5)},     // existing dict value
  });
  EXPECT_EQ(t.NumRows(), 5u);
  EXPECT_EQ(t.version(), 1u);
  EXPECT_EQ(t.column("cat").dictionary().size(), 3u);
  EXPECT_EQ(t.column("cat").GetValue(2).AsString(), "c");
  EXPECT_TRUE(t.column("val").IsNull(2));
  EXPECT_TRUE(t.column("cat").IsNull(3));
  EXPECT_EQ(t.column("cat").GetCode(4), t.column("cat").GetCode(0));
  EXPECT_EQ(t.column("num").NumDistinct(), 4u);  // cache invalidated

  t.AppendRows({{Value("d"), Value(int64_t{5}), Value(5.5)}});
  EXPECT_EQ(t.version(), 2u);  // one bump per batch
}

TEST(TableAppendTest, AppendRowsValidatesAtomically) {
  Table t = MakeSmallTable();
  // Arity mismatch in the second row: nothing may land.
  EXPECT_THROW(t.AppendRows({{Value("c"), Value(int64_t{3}), Value(3.5)},
                             {Value("d"), Value(int64_t{4})}}),
               std::invalid_argument);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.version(), 0u);
  EXPECT_EQ(t.column("cat").dictionary().size(), 2u);

  // String into a numeric column is rejected up front.
  EXPECT_THROW(t.AppendRows({{Value("c"), Value("not-a-number"), Value()}}),
               std::invalid_argument);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableAppendTest, CloneIsIndependent) {
  Table t = MakeSmallTable();
  t.AppendRows({{Value("c"), Value(int64_t{3}), Value(3.5)}});
  Table copy = t.Clone();
  EXPECT_EQ(copy.NumRows(), 3u);
  EXPECT_EQ(copy.version(), 1u);
  copy.AppendRows({{Value("d"), Value(int64_t{4}), Value(4.5)}});
  EXPECT_EQ(copy.NumRows(), 4u);
  EXPECT_EQ(copy.version(), 2u);
  EXPECT_EQ(t.NumRows(), 3u);  // original untouched
  EXPECT_EQ(t.version(), 1u);
  EXPECT_EQ(t.column("cat").dictionary().size(), 3u);
  EXPECT_EQ(copy.column("cat").dictionary().size(), 4u);
}

TEST(TableAppendTest, CsvDeltaParsesAgainstSchemaInAnyColumnOrder) {
  const Table t = MakeSmallTable();
  std::istringstream delta(
      "val,cat,num\n"
      "9.5,c,7\n"
      "NA,a,NA\n");
  const auto rows = ReadCsvDelta(t, delta);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "c");   // schema order restored
  EXPECT_EQ(rows[0][1].AsInt(), 7);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 9.5);
  EXPECT_TRUE(rows[1][1].is_null());
  EXPECT_TRUE(rows[1][2].is_null());
}

TEST(TableAppendTest, CsvDeltaRejectsSchemaViolations) {
  const Table t = MakeSmallTable();
  std::istringstream bad_header("cat,num\n" "a,1\n");
  EXPECT_THROW(ReadCsvDelta(t, bad_header), std::runtime_error);
  std::istringstream unknown("cat,num,other\n" "a,1,2\n");
  EXPECT_THROW(ReadCsvDelta(t, unknown), std::runtime_error);
  std::istringstream dup("cat,num,num\n" "a,1,2\n");
  EXPECT_THROW(ReadCsvDelta(t, dup), std::runtime_error);
  // Unparsable numeric cells throw — the schema is fixed, so the reader
  // must not silently null them the way inference-time demotion would.
  std::istringstream bad_cell("cat,num,val\n" "a,oops,1.5\n");
  EXPECT_THROW(ReadCsvDelta(t, bad_cell), std::runtime_error);
}

// ---- Engine layer ----------------------------------------------------------

struct EngineWorld {
  std::shared_ptr<Table> table;
  std::vector<SimplePredicate> atoms;
};

EngineWorld MakeEngineWorld(uint64_t seed, size_t rows) {
  EngineWorld w;
  Rng rng(seed);
  w.table = std::make_shared<Table>();
  w.table->AddColumn("c", ColumnType::kCategorical);
  w.table->AddColumn("i", ColumnType::kInt64);
  w.table->AddColumn("d", ColumnType::kDouble);
  const char* cats[] = {"x", "y", "z"};
  for (size_t r = 0; r < rows; ++r) {
    w.table->AddRow(
        {rng.NextBool(0.05) ? Value() : Value(cats[rng.NextBounded(3)]),
         rng.NextBool(0.05) ? Value() : Value(rng.NextInt(0, 9)),
         rng.NextBool(0.05) ? Value() : Value(rng.NextGaussian())});
  }
  w.atoms = {
      SimplePredicate("c", CompareOp::kEq, Value("x")),
      SimplePredicate("c", CompareOp::kEq, Value("y")),
      // Absent from the base dictionary; only delta rows may introduce it.
      SimplePredicate("c", CompareOp::kEq, Value("w")),
      SimplePredicate("i", CompareOp::kLt, Value(int64_t{5})),
      SimplePredicate("d", CompareOp::kGt, Value(0.0)),
  };
  return w;
}

std::vector<std::vector<Value>> MakeDelta(uint64_t seed, size_t rows) {
  Rng rng(seed);
  std::vector<std::vector<Value>> delta;
  const char* cats[] = {"x", "y", "w"};  // "w" is new to the dictionary
  for (size_t r = 0; r < rows; ++r) {
    delta.push_back(
        {rng.NextBool(0.1) ? Value() : Value(cats[rng.NextBounded(3)]),
         rng.NextBool(0.1) ? Value() : Value(rng.NextInt(0, 9)),
         rng.NextBool(0.1) ? Value() : Value(rng.NextGaussian())});
  }
  return delta;
}

TEST(EngineExtensionTest, ExtendedBitsetsMatchFreshEngine) {
  EngineWorld w = MakeEngineWorld(17, 300);
  auto base_engine =
      std::make_shared<EvalEngine>(std::shared_ptr<const Table>(w.table));
  // Materialize every atom on the base, including the absent-constant one
  // (an all-zero bitset until "w" arrives with the delta).
  for (const auto& a : w.atoms) {
    base_engine->PredicateBits(base_engine->Intern(a));
  }

  Table g = w.table->Clone();
  g.AppendRows(MakeDelta(18, 60));
  auto grown = std::make_shared<const Table>(std::move(g));
  EvalEngine extended(grown, *base_engine);
  EvalEngine fresh(grown);

  EXPECT_EQ(extended.Stats().bitsets_extended, w.atoms.size());
  for (const auto& a : w.atoms) {
    const Pattern p({a});
    EXPECT_TRUE(extended.Evaluate(p) == fresh.Evaluate(p))
        << a.ToString();
  }
  // Conjunctions across extended atoms agree too.
  const Pattern conj({w.atoms[0], w.atoms[3]});
  EXPECT_TRUE(extended.Evaluate(conj) == fresh.Evaluate(conj));
  // Nothing was rebuilt from scratch: every atom came from extension.
  EXPECT_EQ(extended.Stats().bitsets_materialized, 0u);
  // Numeric views extend to the new universe.
  base_engine->Numeric(2);
  EvalEngine extended2(grown, *base_engine);
  const NumericColumnView& view = extended2.Numeric(2);
  EXPECT_EQ(view.values.size(), grown->NumRows());
  EXPECT_EQ(extended2.Stats().column_views_extended, 1u);
  for (size_t r = 0; r < grown->NumRows(); ++r) {
    if (grown->column(2).IsNull(r)) {
      EXPECT_FALSE(view.valid.Test(r));
    } else {
      EXPECT_EQ(view.values[r], grown->column(2).GetNumeric(r));
    }
  }
}

TEST(EngineExtensionTest, PreservesInternedIdsAndEvictedSlots) {
  EngineWorld w = MakeEngineWorld(23, 200);
  auto base_engine =
      std::make_shared<EvalEngine>(std::shared_ptr<const Table>(w.table));
  std::vector<PredicateId> ids;
  for (const auto& a : w.atoms) ids.push_back(base_engine->Intern(a));
  base_engine->PredicateBits(ids[0]);
  base_engine->PredicateBits(ids[1]);
  // Evict everything: extension must carry the interning but not revive
  // evicted bitsets.
  base_engine->EvictLru(base_engine->CacheBytes());

  Table g = w.table->Clone();
  g.AppendRows(MakeDelta(24, 40));
  auto grown = std::make_shared<const Table>(std::move(g));
  EvalEngine extended(grown, *base_engine);
  EXPECT_EQ(extended.Stats().bitsets_extended, 0u);
  EXPECT_EQ(extended.NumInterned(), w.atoms.size());
  for (size_t i = 0; i < w.atoms.size(); ++i) {
    EXPECT_EQ(extended.Intern(w.atoms[i]), ids[i]);
  }
  // Evicted slots rematerialize over the full grown table on demand.
  EvalEngine fresh(grown);
  for (size_t i = 0; i < w.atoms.size(); ++i) {
    EXPECT_TRUE(*extended.PredicateBits(ids[i]) ==
                *fresh.PredicateBits(fresh.Intern(w.atoms[i])));
  }
}

TEST(EngineExtensionTest, RejectsNonExtension) {
  EngineWorld w = MakeEngineWorld(29, 100);
  auto engine =
      std::make_shared<EvalEngine>(std::shared_ptr<const Table>(w.table));
  auto smaller = std::make_shared<const Table>(
      w.table->SelectRows({0, 1, 2}));
  EXPECT_THROW(EvalEngine(smaller, *engine), std::invalid_argument);
  // More rows dropped than the base has.
  const auto same = std::shared_ptr<const Table>(w.table);
  EXPECT_THROW(EvalEngine(same, *engine, 101), std::invalid_argument);
  // Fewer rows than the base keeps after the drop.
  auto short_tail = std::make_shared<const Table>(w.table->Tail(10));
  EXPECT_THROW(EvalEngine(short_tail, *engine, 5), std::invalid_argument);
}

// Checks a derived engine against a fresh one over the same table:
// every atom, one conjunction, and every column's numeric view.
void ExpectMatchesFreshEngine(EvalEngine& derived, const EngineWorld& w,
                              const std::shared_ptr<const Table>& table) {
  EvalEngine fresh(table);
  for (const auto& a : w.atoms) {
    const Pattern p({a});
    EXPECT_TRUE(derived.Evaluate(p) == fresh.Evaluate(p)) << a.ToString();
  }
  const Pattern conj({w.atoms[0], w.atoms[3]});
  EXPECT_TRUE(derived.Evaluate(conj) == fresh.Evaluate(conj));
  for (size_t col = 0; col < table->NumColumns(); ++col) {
    const NumericColumnView& got = derived.Numeric(col);
    const NumericColumnView& want = fresh.Numeric(col);
    ASSERT_EQ(got.values.size(), want.values.size());
    EXPECT_TRUE(got.valid == want.valid) << "column " << col;
    for (size_t r = 0; r < got.values.size(); ++r) {
      if (want.valid.Test(r)) {
        EXPECT_EQ(got.values[r], want.values[r]) << "column " << col;
      }
    }
  }
}

std::shared_ptr<EvalEngine> WarmShardedEngine(const EngineWorld& w,
                                              size_t shards) {
  EvalEngineOptions options;
  options.num_shards = shards;
  auto engine = std::make_shared<EvalEngine>(
      std::shared_ptr<const Table>(w.table), options);
  for (const auto& a : w.atoms) engine->Evaluate(Pattern({a}));
  for (size_t col = 0; col < w.table->NumColumns(); ++col) {
    engine->Numeric(col);
  }
  return engine;
}

TEST(EngineExtensionTest, DropAndAppendInOneDerivation) {
  EngineWorld w = MakeEngineWorld(41, 512);
  auto base = WarmShardedEngine(w, 4);  // four 128-row shards
  Table g = w.table->Tail(37);  // unaligned drop
  g.AppendRows(MakeDelta(42, 90));
  auto derived_table = std::make_shared<const Table>(std::move(g));
  EvalEngine derived(derived_table, *base, 37);

  // A dropped prefix counts as retraction, even with rows appended.
  EXPECT_EQ(derived.Stats().bitsets_retracted, w.atoms.size());
  EXPECT_EQ(derived.Stats().bitsets_extended, 0u);
  // Int and double views carry; the categorical one (re-coded by Tail)
  // rebuilds on demand.
  EXPECT_EQ(derived.Stats().column_views_retracted, 2u);
  EXPECT_EQ(derived.Stats().column_views_extended, 0u);
  EXPECT_EQ(derived.NumInterned(), w.atoms.size());
  ExpectMatchesFreshEngine(derived, w, derived_table);
  EXPECT_EQ(derived.Stats().bitsets_materialized, 0u);
  EXPECT_EQ(derived.Stats().column_views_built, 1u);
}

TEST(EngineExtensionTest, RetractionCarriesAroundAnEvictedSegment) {
  EngineWorld w = MakeEngineWorld(43, 512);
  auto base = WarmShardedEngine(w, 4);
  // Evicts exactly the oldest segment: shard 0 of the first atom, which
  // holds surviving rows 40..127.
  ASSERT_GT(base->EvictLru(1), 0u);
  ASSERT_EQ(base->Stats().bitsets_evicted, 1u);
  auto tail = std::make_shared<const Table>(w.table->Tail(40));
  EvalEngine derived(tail, *base, 40);

  // Per-shard carry: the first atom still carries its other shards.
  EXPECT_EQ(derived.Stats().bitsets_retracted, w.atoms.size());
  ExpectMatchesFreshEngine(derived, w, tail);
  // Only the target shard that needed the evicted segment rebuilt.
  EXPECT_EQ(derived.Stats().bitsets_materialized, 1u);
}

TEST(EngineExtensionTest, AppendCarriesDistinctValuesRetractionRecounts) {
  auto make = [](const std::vector<std::vector<Value>>& rows) {
    Table t;
    t.AddColumn("c", ColumnType::kCategorical);
    t.AddColumn("i", ColumnType::kInt64);
    t.AddColumn("d", ColumnType::kDouble);
    t.AppendRows(rows);
    return t;
  };
  const int64_t big = (int64_t{1} << 60) + 1;  // not exact as a double
  const std::vector<std::vector<Value>> base_rows = {
      {Value("b"), Value(int64_t{3}), Value(0.0)},
      {Value("a"), Value(big), Value(2.5)},
      {Value(), Value(), Value()},
      {Value("b"), Value(int64_t{3}), Value(-0.0)},
  };
  const std::vector<std::vector<Value>> delta = {
      {Value("c"), Value(big + 1), Value(-0.0)},
      {Value("a"), Value(int64_t{-7}), Value(1.0)},
      {Value("c"), Value(big), Value(9.0)},
  };
  auto base_table = std::make_shared<const Table>(make(base_rows));
  auto base = std::make_shared<EvalEngine>(base_table);
  for (size_t c = 0; c < 3; ++c) base->DistinctValues(c);

  Table grown_rows = base_table->Clone();
  grown_rows.AppendRows(delta);
  auto grown = std::make_shared<const Table>(std::move(grown_rows));
  EvalEngine derived(grown, *base);
  auto tail = std::make_shared<const Table>(grown->Tail(2));
  EvalEngine retracted(tail, derived, 2);
  for (EvalEngine* e : {&derived, &retracted}) {
    for (size_t c = 0; c < 3; ++c) {
      const Column& col = e->table().column(c);
      const std::vector<Value> want = col.DistinctValues();
      const std::vector<Value> got =
          *e->DistinctValues(c);
      ASSERT_EQ(got.size(), want.size()) << col.name();
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].ToString(), want[k].ToString()) << col.name();
        if (want[k].is_double()) {  // the same zero, by bit pattern
          EXPECT_EQ(std::signbit(got[k].AsDouble()),
                    std::signbit(want[k].AsDouble()));
        }
        if (want[k].is_int()) {
          EXPECT_EQ(got[k].AsInt(), want[k].AsInt());
        }
      }
      EXPECT_EQ(e->NumDistinct(c), col.NumDistinct());
    }
  }
  // The base's first zero (+0.0) stays the class representative.
  EXPECT_FALSE(std::signbit((*derived.DistinctValues(2))[0].AsDouble()));
}

TEST(EngineExtensionTest, WholeShardDropKeepsSurvivingSegments) {
  EngineWorld w = MakeEngineWorld(47, 512);
  EvalEngineOptions options;
  options.num_shards = 4;
  auto base = std::make_shared<EvalEngine>(
      std::shared_ptr<const Table>(w.table), options);
  for (const auto& a : w.atoms) base->Evaluate(Pattern({a}));
  auto tail = std::make_shared<const Table>(w.table->Tail(256));
  EvalEngine derived(tail, *base, 256);

  EXPECT_EQ(derived.plan().NumShards(), 2u);
  EXPECT_EQ(derived.Stats().bitsets_retracted, w.atoms.size());
  // Two of the four equal-size segments of every atom survive.
  EXPECT_EQ(derived.CacheBytes() * 2, base->CacheBytes());
  ExpectMatchesFreshEngine(derived, w, tail);
  EXPECT_EQ(derived.Stats().bitsets_materialized, 0u);
}

// ---- Estimator-context migration -------------------------------------------

TEST(ContextMigrationTest, UntouchedSubpopulationsHitTheMemo) {
  // Two subpopulations (G=a, G=b); the delta only adds G=b rows. After
  // migration, a CATE over G=a re-interns to the same zero-extended
  // subpopulation and must be a memo hit with a bit-identical estimate,
  // while G=b grew and must recompute.
  Rng rng(31);
  auto table = std::make_shared<Table>();
  table->AddColumn("G", ColumnType::kCategorical);
  table->AddColumn("T", ColumnType::kInt64);
  table->AddColumn("Y", ColumnType::kDouble);
  for (size_t r = 0; r < 240; ++r) {
    const int64_t treat = rng.NextBool(0.5) ? 1 : 0;
    table->AddRow({Value(rng.NextBool(0.5) ? "a" : "b"), Value(treat),
                   Value(2.0 * treat + rng.NextGaussian())});
  }
  CausalDag dag;
  dag.AddNode("T");
  dag.AddNode("Y");
  dag.AddEdge("T", "Y");

  auto engine =
      std::make_shared<EvalEngine>(std::shared_ptr<const Table>(table));
  auto ctx = std::make_shared<EstimatorContext>(engine, dag,
                                                EstimatorOptions{});
  const Pattern treatment(
      {SimplePredicate("T", CompareOp::kEq, Value(int64_t{1}))});
  const Pattern in_a({SimplePredicate("G", CompareOp::kEq, Value("a"))});
  const Pattern in_b({SimplePredicate("G", CompareOp::kEq, Value("b"))});
  const EffectEstimate a_before =
      ctx->EstimateCate(treatment, "Y", engine->Evaluate(in_a));
  ctx->EstimateCate(treatment, "Y", engine->Evaluate(in_b));
  ASSERT_TRUE(a_before.valid);

  std::vector<std::vector<Value>> delta;
  for (size_t r = 0; r < 60; ++r) {
    const int64_t treat = rng.NextBool(0.5) ? 1 : 0;
    delta.push_back({Value("b"), Value(treat),
                     Value(2.0 * treat + rng.NextGaussian())});
  }
  Table g = table->Clone();
  g.AppendRows(delta);
  auto grown = std::make_shared<const Table>(std::move(g));
  auto engine2 = std::make_shared<EvalEngine>(grown, *engine);
  auto ctx2 = std::make_shared<EstimatorContext>(engine2, *ctx);
  EXPECT_EQ(ctx2->Stats().memo_migrated, 2u);

  const EffectEstimate a_after =
      ctx2->EstimateCate(treatment, "Y", engine2->Evaluate(in_a));
  EXPECT_EQ(ctx2->Stats().memo_hits, 1u);  // untouched -> served warm
  EXPECT_EQ(a_after.cate, a_before.cate);
  EXPECT_EQ(a_after.std_error, a_before.std_error);
  EXPECT_EQ(a_after.n_used, a_before.n_used);

  const EffectEstimate b_after =
      ctx2->EstimateCate(treatment, "Y", engine2->Evaluate(in_b));
  EXPECT_EQ(ctx2->Stats().memo_hits, 1u);  // grew -> recomputed
  EXPECT_EQ(ctx2->Stats().memo_misses, 1u);
  // The recomputation matches a cold context over the grown table.
  EstimatorContext cold(engine2, dag, EstimatorOptions{});
  const EffectEstimate b_cold =
      cold.EstimateCate(treatment, "Y", engine2->Evaluate(in_b));
  EXPECT_EQ(b_after.cate, b_cold.cate);
  EXPECT_EQ(b_after.n_used, b_cold.n_used);
}

TEST(ContextMigrationTest, DropAndAppendCarriesUntouchedSubpopulations) {
  // The first 40 rows are all G=b, so dropping them leaves G=a intact
  // while G=b loses rows; the appended rows are all G=b too. After one
  // derivation, G=a must be a memo hit and G=b must recompute, both
  // bit-identical to a fresh context over the derived table.
  Rng rng(59);
  auto table = std::make_shared<Table>();
  table->AddColumn("G", ColumnType::kCategorical);
  table->AddColumn("T", ColumnType::kInt64);
  table->AddColumn("Y", ColumnType::kDouble);
  auto make_row = [&rng](const char* group) {
    const int64_t treat = rng.NextBool(0.5) ? 1 : 0;
    return std::vector<Value>{Value(group), Value(treat),
                              Value(2.0 * treat + rng.NextGaussian())};
  };
  for (size_t r = 0; r < 280; ++r) {
    table->AddRow(make_row(r < 40 || rng.NextBool(0.5) ? "b" : "a"));
  }
  CausalDag dag;
  dag.AddEdge("T", "Y");

  EvalEngineOptions options;
  options.num_shards = 3;
  auto engine = std::make_shared<EvalEngine>(
      std::shared_ptr<const Table>(table), options);
  auto ctx = std::make_shared<EstimatorContext>(engine, dag,
                                                EstimatorOptions{});
  const Pattern treatment(
      {SimplePredicate("T", CompareOp::kEq, Value(int64_t{1}))});
  const Pattern in_a({SimplePredicate("G", CompareOp::kEq, Value("a"))});
  const Pattern in_b({SimplePredicate("G", CompareOp::kEq, Value("b"))});
  ctx->EstimateCate(treatment, "Y", engine->Evaluate(in_a));
  ctx->EstimateCate(treatment, "Y", engine->Evaluate(in_b));

  Table g = table->Tail(40);
  std::vector<std::vector<Value>> delta;
  for (size_t r = 0; r < 50; ++r) delta.push_back(make_row("b"));
  g.AppendRows(delta);
  auto derived_table = std::make_shared<const Table>(std::move(g));
  auto engine2 = std::make_shared<EvalEngine>(derived_table, *engine, 40);
  EstimatorContext ctx2(engine2, *ctx, 40);
  EXPECT_EQ(ctx2.Stats().memo_migrated, 1u);  // G=b lost rows

  auto fresh_engine = std::make_shared<EvalEngine>(derived_table);
  EstimatorContext fresh(fresh_engine, dag, EstimatorOptions{});
  for (const Pattern* group : {&in_a, &in_b}) {
    const EffectEstimate got =
        ctx2.EstimateCate(treatment, "Y", engine2->Evaluate(*group));
    const EffectEstimate want =
        fresh.EstimateCate(treatment, "Y", fresh_engine->Evaluate(*group));
    EXPECT_EQ(got.valid, want.valid);
    EXPECT_EQ(got.cate, want.cate);
    EXPECT_EQ(got.std_error, want.std_error);
    EXPECT_EQ(got.n_used, want.n_used);
  }
  EXPECT_EQ(ctx2.Stats().memo_hits, 1u);    // G=a served warm
  EXPECT_EQ(ctx2.Stats().memo_misses, 1u);  // G=b recomputed
}

TEST(ContextMigrationTest, RejectsInvalidDerivation) {
  EngineWorld w = MakeEngineWorld(61, 100);
  auto engine =
      std::make_shared<EvalEngine>(std::shared_ptr<const Table>(w.table));
  CausalDag dag;
  dag.AddEdge("i", "d");
  EstimatorContext ctx(engine, dag, EstimatorOptions{});
  EXPECT_THROW(EstimatorContext(engine, ctx, 101), std::invalid_argument);
  auto short_engine = std::make_shared<EvalEngine>(
      std::make_shared<const Table>(w.table->Tail(10)));
  EXPECT_THROW(EstimatorContext(short_engine, ctx, 5), std::invalid_argument);
}

// ---- Service layer ---------------------------------------------------------

GeneratedDataset MakeData(size_t rows = 1500) {
  SyntheticOptions opt;
  opt.num_rows = rows;
  opt.num_treatment_attrs = 4;
  return MakeSyntheticDataset(opt);
}

CauSumXConfig MakeConfig(const GeneratedDataset& ds) {
  CauSumXConfig config;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  return config;
}

TEST(ServiceAppendTest, AppendThenQueryBitIdenticalToRebuild) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = (total * 4) / 5;

  // Reference: the full table, registered from scratch.
  ExplanationService reference;
  reference.RegisterTable("t", ds.table.Head(total));
  const std::string expected = SummaryToJson(
      reference.Explain("t", ds.default_query, ds.dag, config).summary);

  // Streaming: register the first 80%, warm the caches with a query,
  // then append the rest and re-query through the extended caches.
  ExplanationService service;
  service.RegisterTable("t", ds.table.Head(base_rows));
  service.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(service.TableVersion("t"), 0u);

  service.Append("t", ds.table.MaterializeRows(base_rows, total));
  EXPECT_EQ(service.TableVersion("t"), 1u);
  EXPECT_EQ(service.GetTable("t")->NumRows(), total);
  EXPECT_EQ(service.Stats().appends_executed, 1u);
  EXPECT_EQ(service.Stats().rows_appended, total - base_rows);

  const CauSumXResult incremental =
      service.Explain("t", ds.default_query, ds.dag, config);
  EXPECT_EQ(SummaryToJson(incremental.summary), expected);

  // The warm path actually ran warm: bitsets were extended (not rebuilt)
  // and the migrated memo carried entries across the append.
  const EvalEngineStats engine_stats = service.Engine("t")->Stats();
  EXPECT_GT(engine_stats.bitsets_extended, 0u);
  EXPECT_GT(incremental.cache_stats.estimator.memo_migrated, 0u);
}

TEST(ServiceAppendTest, RepeatedAppendsStayConsistent) {
  GeneratedDataset ds = MakeData(1200);
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = total / 2;

  ExplanationService service;
  service.RegisterTable("t", ds.table.Head(base_rows));
  const size_t chunk = (total - base_rows) / 3;
  size_t at = base_rows;
  for (int i = 0; i < 3; ++i) {
    const size_t next = (i == 2) ? total : at + chunk;
    service.Append("t", ds.table.MaterializeRows(at, next));
    at = next;
    // Each version answers exactly like a from-scratch registration.
    ExplanationService fresh;
    fresh.RegisterTable("t", ds.table.Head(at));
    EXPECT_EQ(
        SummaryToJson(
            service.Explain("t", ds.default_query, ds.dag, config).summary),
        SummaryToJson(
            fresh.Explain("t", ds.default_query, ds.dag, config).summary))
        << "after append " << i;
  }
  EXPECT_EQ(service.TableVersion("t"), 3u);
}

TEST(ServiceAppendTest, UnknownTableAndEmptyDelta) {
  ExplanationService service;
  EXPECT_THROW(service.Append("nope", {}), std::out_of_range);
  GeneratedDataset ds = MakeData(600);
  service.RegisterTable("t", std::move(ds.table));
  // An empty delta is a legal (if pointless) append: version still bumps.
  service.Append("t", {});
  EXPECT_EQ(service.TableVersion("t"), 1u);
}

TEST(ServiceAppendTest, ConcurrentAppendsAndQueriesStayConsistent) {
  // Appends land while queries are in flight: every query must return a
  // result that is bit-identical to some snapshot version's from-scratch
  // answer (copy-on-write isolation), and the final state must equal the
  // fully-grown reference. Run under TSan in CI.
  GeneratedDataset ds = MakeData(1000);
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = (total * 3) / 4;
  const size_t chunk = (total - base_rows) / 2;

  // Expected summaries for each version the table can be observed at.
  std::vector<std::string> expected;
  for (const size_t rows : {base_rows, base_rows + chunk, total}) {
    ExplanationService fresh;
    fresh.RegisterTable("t", ds.table.Head(rows));
    expected.push_back(SummaryToJson(
        fresh.Explain("t", ds.default_query, ds.dag, config).summary));
  }

  ExplanationService service;
  service.RegisterTable("t", ds.table.Head(base_rows));
  std::atomic<bool> start{false};

  std::vector<std::future<std::string>> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(std::async(std::launch::async, [&] {
      while (!start.load()) std::this_thread::yield();
      CauSumXConfig c = config;
      c.num_threads = 1;
      std::string last;
      for (int q = 0; q < 3; ++q) {
        last = SummaryToJson(
            service.Explain("t", ds.default_query, ds.dag, c).summary);
      }
      return last;
    }));
  }
  std::thread appender([&] {
    start.store(true);
    service.Append("t", ds.table.MaterializeRows(base_rows, base_rows + chunk));
    service.Append("t", ds.table.MaterializeRows(base_rows + chunk, total));
  });
  for (auto& q : queries) {
    const std::string got = q.get();
    EXPECT_TRUE(got == expected[0] || got == expected[1] ||
                got == expected[2])
        << "query result matches no snapshot version";
  }
  appender.join();

  EXPECT_EQ(service.TableVersion("t"), 2u);
  CauSumXConfig c = config;
  EXPECT_EQ(SummaryToJson(
                service.Explain("t", ds.default_query, ds.dag, c).summary),
            expected[2]);
}

// Sharded variant of the above: appends land mid-query while the table's
// engine runs a multi-shard plan on the shared pool. The delta extension
// must keep shard boundaries stable (clean shards share segments with
// the pre-append engine) and every concurrent query must still match a
// snapshot version bit for bit. Run under TSan in CI.
TEST(ServiceAppendTest, ShardedAppendMidQueryStaysConsistent) {
  GeneratedDataset ds = MakeData(1200);
  const CauSumXConfig config = MakeConfig(ds);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = (total * 3) / 4;

  ServiceOptions sharded;
  sharded.num_threads = 6;  // a 6-shard plan

  std::vector<std::string> expected;
  for (const size_t rows : {base_rows, total}) {
    ExplanationService fresh(sharded);
    fresh.RegisterTable("t", ds.table.Head(rows));
    expected.push_back(SummaryToJson(
        fresh.Explain("t", ds.default_query, ds.dag, config).summary));
  }

  ExplanationService service(sharded);
  service.RegisterTable("t", ds.table.Head(base_rows));
  const ShardPlan base_plan = service.Engine("t")->plan();
  service.Explain("t", ds.default_query, ds.dag, config);  // warm caches
  std::atomic<bool> start{false};

  std::vector<std::future<std::string>> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(std::async(std::launch::async, [&] {
      while (!start.load()) std::this_thread::yield();
      CauSumXConfig c = config;
      c.num_threads = 1;
      std::string last;
      for (int q = 0; q < 2; ++q) {
        last = SummaryToJson(
            service.Explain("t", ds.default_query, ds.dag, c).summary);
      }
      return last;
    }));
  }
  std::thread appender([&] {
    start.store(true);
    service.Append("t", ds.table.MaterializeRows(base_rows, total));
  });
  for (auto& q : queries) {
    const std::string got = q.get();
    EXPECT_TRUE(got == expected[0] || got == expected[1])
        << "query result matches no snapshot version";
  }
  appender.join();

  // Shard size survived the append (boundaries of clean shards stable),
  // the shard count grew with the rows, and segments were carried.
  const ShardPlan grown_plan = service.Engine("t")->plan();
  EXPECT_EQ(grown_plan.shard_rows(), base_plan.shard_rows());
  EXPECT_GE(grown_plan.NumShards(), base_plan.NumShards());
  EXPECT_GT(service.Engine("t")->Stats().bitsets_extended, 0u);
  EXPECT_EQ(SummaryToJson(
                service.Explain("t", ds.default_query, ds.dag, config)
                    .summary),
            expected[1]);
}

// ---- Batch layer -----------------------------------------------------------

TEST(BatchAppendTest, AppendOpIsABarrierBetweenQueries) {
  GeneratedDataset ds = MakeData(800);
  const size_t total = ds.table.NumRows();
  const size_t base_rows = (total * 4) / 5;

  ExplanationService service;
  service.RegisterTable("sales", ds.table.Head(base_rows));

  // JSON rows for the delta, in schema order.
  std::ostringstream rows_json;
  rows_json << "[";
  const auto delta = ds.table.MaterializeRows(base_rows, total);
  for (size_t i = 0; i < delta.size(); ++i) {
    if (i) rows_json << ",";
    rows_json << "[";
    for (size_t c = 0; c < delta[i].size(); ++c) {
      if (c) rows_json << ",";
      const Value& v = delta[i][c];
      if (v.is_null()) {
        rows_json << "null";
      } else if (v.is_string()) {
        rows_json << "\"" << v.AsString() << "\"";
      } else {
        rows_json << v.ToString();
      }
    }
    rows_json << "]";
  }
  rows_json << "]";

  const std::string query_line =
      std::string("{\"table\":\"sales\",\"group_by\":\"") +
      ds.default_query.group_by[0] + "\",\"avg\":\"" +
      ds.default_query.avg_attribute + "\"}";
  std::istringstream in(
      query_line + "\n" +
      "{\"op\":\"append\",\"table\":\"sales\",\"rows\":" + rows_json.str() +
      "}\n" + query_line + "\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(service, in, out);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.failed, 0u) << out.str();

  std::vector<std::string> lines;
  std::istringstream parse(out.str());
  for (std::string line; std::getline(parse, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("\"op\":\"append\""), std::string::npos);
  EXPECT_NE(lines[1].find(
                "\"rows_appended\":" + std::to_string(total - base_rows)),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"version\":1"), std::string::npos);
  EXPECT_EQ(service.GetTable("sales")->NumRows(), total);
}

TEST(BatchAppendTest, AppendErrorsAreReportedPerLine) {
  ExplanationService service;
  std::istringstream in(
      "{\"op\":\"append\",\"table\":\"ghost\",\"rows\":[]}\n"
      "{\"op\":\"frobnicate\"}\n");
  std::ostringstream out;
  const BatchSummary summary = RunBatch(service, in, out);
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.failed, 2u);
  EXPECT_NE(out.str().find("unknown table"), std::string::npos);
  EXPECT_NE(out.str().find("unknown op"), std::string::npos);
}

// ---- Windowed-monitor concurrency soak -------------------------------------

// Runs under TSan in CI: concurrent appender threads drive a sliding-
// window monitor (so rows expire and the retract path runs) through the
// registry's append observer while a checkpointer thread exports the
// registry, long-poll subscriber threads tail the event stream and
// status readers poll concurrently. Every subscriber must observe every
// event seq exactly once with no gaps or duplicates.
TEST(MonitorConcurrencyTest, SoakAppendsLongPollAndSnapshots) {
  struct TempDir {
    std::string path;
    TempDir() {
      char buf[] = "/tmp/causumx_soak_XXXXXX";
      path = ::mkdtemp(buf);
    }
    ~TempDir() {
      for (const std::string& f : ListDirFiles(path)) {
        ::unlink((path + "/" + f).c_str());
      }
      ::rmdir(path.c_str());
    }
  } dir;

  Table schema;
  schema.AddColumn("grp", ColumnType::kCategorical);
  schema.AddColumn("trt", ColumnType::kCategorical);
  schema.AddColumn("val", ColumnType::kDouble);

  ServiceOptions options;
  options.data_dir = dir.path;
  ExplanationService service(options);
  service.RegisterTable("t", std::make_shared<const Table>(schema.Clone()));

  MonitorRegistry registry(service);
  const auto monitor = registry.Create(
      "{\"table\":\"t\",\"group_by\":[\"grp\"],\"avg\":\"val\","
      "\"dag_text\":\"trt -> val\\n\",\"grouping_attrs\":[\"grp\"],"
      "\"treatment_attrs\":[\"trt\"],\"alpha\":0.99,\"min_group_size\":3,"
      "\"support\":0.1,\"emit_summaries\":true,"
      "\"window\":{\"kind\":\"sliding\",\"size_rows\":40,"
      "\"slide_rows\":20}}");

  constexpr int kAppenders = 3;
  constexpr int kBatchesPerAppender = 12;
  constexpr int kRowsPerBatch = 15;
  std::atomic<uint64_t> final_seq{~uint64_t{0}};

  auto subscriber = [&]() {
    uint64_t since = 0;
    while (true) {
      for (const MonitorEvent& e : monitor->WaitEventsSince(since, 25)) {
        // Contiguous and duplicate-free: each delivered seq is exactly
        // the successor of the last one this subscriber saw.
        EXPECT_EQ(e.seq, since + 1) << "lost or duplicated event";
        since = e.seq;
      }
      const uint64_t target = final_seq.load(std::memory_order_acquire);
      if (target != ~uint64_t{0} && since >= target) break;
    }
    EXPECT_EQ(since, final_seq.load(std::memory_order_acquire));
  };
  auto status_reader = [&]() {
    while (final_seq.load(std::memory_order_acquire) == ~uint64_t{0}) {
      const MonitorStatus s = monitor->Status();
      EXPECT_LE(s.window_rows, 60u);  // never beyond window + slide
      std::this_thread::yield();
    }
  };

  // Checkpoints race the appends: an export must see whole windows.
  std::atomic<bool> appending{true};
  auto checkpointer = [&]() {
    do {
      EXPECT_GT(registry.SaveSnapshot(), 0u);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (appending.load(std::memory_order_acquire));
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(subscriber);
  threads.emplace_back(status_reader);
  threads.emplace_back(checkpointer);

  std::vector<std::thread> appenders;
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a]() {
      Rng rng(1000 + a);
      const char* groups[] = {"g1", "g2", "g3"};
      for (int b = 0; b < kBatchesPerAppender; ++b) {
        std::vector<std::vector<Value>> rows;
        for (int r = 0; r < kRowsPerBatch; ++r) {
          const bool treated = rng.NextBool(0.5);
          rows.push_back({Value(groups[rng.NextBounded(3)]),
                          Value(treated ? "hi" : "lo"),
                          Value((treated ? 8.0 : 1.0) + rng.NextDouble())});
        }
        service.Append("t", rows);
      }
    });
  }
  for (auto& t : appenders) t.join();
  appending.store(false, std::memory_order_release);
  final_seq.store(monitor->Status().last_seq, std::memory_order_release);
  for (auto& t : threads) t.join();

  // Append delivery is serialized, so windows land at every slide
  // boundary of the total row count.
  const size_t total = kAppenders * kBatchesPerAppender * kRowsPerBatch;
  const MonitorStatus s = monitor->Status();
  EXPECT_EQ(s.rows_observed, total);
  EXPECT_EQ(s.windows_evaluated, (total - 40) / 20 + 1);
  EXPECT_EQ(s.last_seq, s.windows_evaluated);  // one summary per window
  // A checkpoint taken mid-stream restores over the table snapshot and
  // catches up with the rows appended after it.
  ExplanationService fresh(options);
  ASSERT_TRUE(fresh.RestoreTable("t"));
  MonitorRegistry restored(fresh);
  EXPECT_EQ(restored.RestoreMonitors(), 1u);
  EXPECT_EQ(restored.Get(monitor->id())->Status().rows_observed, total);
}

}  // namespace
}  // namespace causumx
