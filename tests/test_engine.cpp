// Tests for the shared evaluation engine (src/engine): predicate
// interning, cached bitsets, the estimator context's CATE memo, and the
// property that every evaluation path — row-at-a-time Matches, batched
// Pattern::Evaluate/EvaluateOn, and the engine's cached and bypass paths
// — agrees bit-for-bit on random tables with nulls.

#include <gtest/gtest.h>

#include <vector>

#include "causal/estimator_context.h"
#include "datagen/synthetic.h"
#include "engine/eval_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace causumx {
namespace {

struct RandomWorld {
  Table table;
  std::vector<SimplePredicate> atoms;
};

RandomWorld MakeWorld(uint64_t seed) {
  RandomWorld w;
  Rng rng(seed);
  w.table.AddColumn("c1", ColumnType::kCategorical);
  w.table.AddColumn("c2", ColumnType::kCategorical);
  w.table.AddColumn("i1", ColumnType::kInt64);
  w.table.AddColumn("d1", ColumnType::kDouble);
  const char* c1_vals[] = {"a", "b", "c"};
  const char* c2_vals[] = {"x", "y"};
  const size_t n = 200 + rng.NextBounded(200);
  for (size_t r = 0; r < n; ++r) {
    // ~5% nulls in each column.
    w.table.AddRow({
        rng.NextBool(0.05) ? Value() : Value(c1_vals[rng.NextBounded(3)]),
        rng.NextBool(0.05) ? Value() : Value(c2_vals[rng.NextBounded(2)]),
        rng.NextBool(0.05) ? Value() : Value(rng.NextInt(0, 9)),
        rng.NextBool(0.05) ? Value() : Value(rng.NextGaussian()),
    });
  }
  w.atoms = {
      SimplePredicate("c1", CompareOp::kEq, Value("a")),
      SimplePredicate("c1", CompareOp::kEq, Value("b")),
      SimplePredicate("c2", CompareOp::kEq, Value("x")),
      // Constant absent from the dictionary: must match nothing (nulls
      // included) on every path.
      SimplePredicate("c1", CompareOp::kEq, Value("zzz")),
      SimplePredicate("i1", CompareOp::kLt, Value(int64_t{5})),
      SimplePredicate("i1", CompareOp::kGe, Value(int64_t{3})),
      SimplePredicate("d1", CompareOp::kGt, Value(0.0)),
      SimplePredicate("d1", CompareOp::kLe, Value(1.0)),
  };
  return w;
}

Pattern RandomPattern(const RandomWorld& w, Rng* rng, size_t max_size) {
  std::vector<SimplePredicate> preds;
  const size_t size = 1 + rng->NextBounded(max_size);
  for (size_t i = 0; i < size; ++i) {
    preds.push_back(w.atoms[rng->NextBounded(w.atoms.size())]);
  }
  return Pattern(std::move(preds));
}

TEST(EvalEngineTest, InterningIsIdempotent) {
  const RandomWorld w = MakeWorld(7);
  EvalEngine engine(BorrowTable(w.table));
  const PredicateId a = engine.Intern(w.atoms[0]);
  const PredicateId b = engine.Intern(w.atoms[1]);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, engine.Intern(w.atoms[0]));
  EXPECT_EQ(b, engine.Intern(w.atoms[1]));
  EXPECT_EQ(engine.NumInterned(), 2u);
  EXPECT_EQ(engine.Stats().predicates_interned, 2u);
}

TEST(EvalEngineTest, InterningDistinguishesStructure) {
  Table t;
  t.AddColumn("AB", ColumnType::kCategorical);
  t.AddColumn("A", ColumnType::kCategorical);
  t.AddRow({Value("c"), Value("Bc")});
  EvalEngine engine(BorrowTable(t));
  // Same concatenated text, different (attribute, value) split.
  const PredicateId a =
      engine.Intern(SimplePredicate("AB", CompareOp::kEq, Value("c")));
  const PredicateId b =
      engine.Intern(SimplePredicate("A", CompareOp::kEq, Value("Bc")));
  EXPECT_NE(a, b);
  // Same attribute+value, different operator.
  const PredicateId c =
      engine.Intern(SimplePredicate("A", CompareOp::kLe, Value("Bc")));
  EXPECT_NE(b, c);
}

TEST(EvalEngineTest, InterningDistinguishesNearbyDoubleThresholds) {
  // Value::ToString rounds doubles to 6 significant digits; the intern
  // key must not, or `d1 < 1234563` would be served `d1 < 1234561`'s
  // cached bitset.
  Table t;
  t.AddColumn("d1", ColumnType::kDouble);
  t.AddRow({Value(1234562.0)});
  EvalEngine engine(BorrowTable(t));
  const SimplePredicate lo("d1", CompareOp::kLt, Value(1234561.0));
  const SimplePredicate hi("d1", CompareOp::kLt, Value(1234563.0));
  EXPECT_NE(engine.Intern(lo), engine.Intern(hi));
  EXPECT_FALSE(engine.Evaluate(Pattern({lo})).Test(0));
  EXPECT_TRUE(engine.Evaluate(Pattern({hi})).Test(0));
}

TEST(EvalEngineTest, BitsetMaterializedOnceAndCounted) {
  const RandomWorld w = MakeWorld(11);
  EvalEngine engine(BorrowTable(w.table));
  const PredicateId id = engine.Intern(w.atoms[0]);
  const std::shared_ptr<const Bitset> first = engine.PredicateBits(id);
  const std::shared_ptr<const Bitset> again = engine.PredicateBits(id);
  EXPECT_EQ(first.get(), again.get());  // same cached object
  const EvalEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.bitsets_materialized, 1u);
  EXPECT_EQ(stats.bitset_hits, 1u);
  EXPECT_GT(stats.bitset_bytes, 0u);
  EXPECT_EQ(stats.bitset_bytes, engine.CacheBytes());
}

TEST(EvalEngineTest, EvictLruFreesBytesAndRebuildsIdentically) {
  const RandomWorld w = MakeWorld(21);
  EvalEngine engine(BorrowTable(w.table));
  std::vector<Bitset> before;
  for (const auto& atom : w.atoms) {
    before.push_back(engine.Evaluate(Pattern({atom})));
  }
  const size_t bytes = engine.CacheBytes();
  ASSERT_GT(bytes, 0u);

  // Partial eviction frees at least what was asked.
  const size_t freed = engine.EvictLru(bytes / 2);
  EXPECT_GE(freed, bytes / 2);
  EXPECT_EQ(engine.CacheBytes(), bytes - freed);
  EXPECT_GT(engine.Stats().bitsets_evicted, 0u);

  // Full eviction empties the accounted cache.
  engine.EvictLru(engine.CacheBytes());
  EXPECT_EQ(engine.CacheBytes(), 0u);

  // Rebuilt bitsets are bit-identical to the pre-eviction ones.
  for (size_t i = 0; i < w.atoms.size(); ++i) {
    EXPECT_TRUE(engine.Evaluate(Pattern({w.atoms[i]})) == before[i]);
  }
  EXPECT_EQ(engine.CacheBytes(), bytes);
}

TEST(EvalEngineTest, EvictionPrefersLeastRecentlyUsed) {
  const RandomWorld w = MakeWorld(23);
  EvalEngine engine(BorrowTable(w.table));
  const PredicateId cold = engine.Intern(w.atoms[0]);
  const PredicateId hot = engine.Intern(w.atoms[1]);
  engine.PredicateBits(cold);
  engine.PredicateBits(hot);  // most recently used
  // Free one bitset's worth: the cold one must go first.
  engine.EvictLru(1);
  const uint64_t evicted_before = engine.Stats().bitsets_evicted;
  EXPECT_EQ(evicted_before, 1u);
  // Touching `hot` now must be a hit (it survived), `cold` a rebuild.
  const EvalEngineStats s0 = engine.Stats();
  engine.PredicateBits(hot);
  EXPECT_EQ(engine.Stats().bitset_hits, s0.bitset_hits + 1);
  engine.PredicateBits(cold);
  EXPECT_EQ(engine.Stats().bitsets_materialized,
            s0.bitsets_materialized + 1);
}

// The satellite property: Matches (row-at-a-time), Evaluate,
// EvaluateOn, and the engine's cached and bypass paths agree
// bit-for-bit on random tables with nulls.
class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, AllEvaluationPathsAgree) {
  const RandomWorld w = MakeWorld(GetParam());
  EvalEngine cached(BorrowTable(w.table),
                    EvalEngineOptions{.cache_enabled = true});
  EvalEngine bypass(BorrowTable(w.table),
                    EvalEngineOptions{.cache_enabled = false});
  Rng rng(GetParam() * 131 + 5);
  const size_t n = w.table.NumRows();
  for (int trial = 0; trial < 25; ++trial) {
    const Pattern p = RandomPattern(w, &rng, 3);
    const Bitset reference = p.Evaluate(w.table);
    const Bitset from_cached = cached.Evaluate(p);
    const Bitset from_bypass = bypass.Evaluate(p);
    ASSERT_TRUE(from_cached == reference) << p.ToString();
    ASSERT_TRUE(from_bypass == reference) << p.ToString();
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(reference.Test(r), p.Matches(w.table, r))
          << p.ToString() << " row " << r;
    }
    // Masked evaluation is intersection on every path.
    Bitset mask(n);
    for (size_t r = 0; r < n; ++r) {
      if (rng.NextBool(0.5)) mask.Set(r);
    }
    const Bitset expected = reference & mask;
    ASSERT_TRUE(p.EvaluateOn(w.table, mask) == expected);
    ASSERT_TRUE(cached.EvaluateOn(p, mask) == expected);
    ASSERT_TRUE(bypass.EvaluateOn(p, mask) == expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EvalEngineTest, EmptyPatternMatchesEverything) {
  const RandomWorld w = MakeWorld(3);
  EvalEngine engine(BorrowTable(w.table));
  const Bitset all = engine.Evaluate(Pattern());
  EXPECT_EQ(all.Count(), w.table.NumRows());
}

TEST(EvalEngineTest, NumericViewMatchesColumnAccessors) {
  const RandomWorld w = MakeWorld(13);
  EvalEngine engine(BorrowTable(w.table));
  for (size_t c = 0; c < w.table.NumColumns(); ++c) {
    const NumericColumnView& view = engine.Numeric(c);
    const Column& col = w.table.column(c);
    ASSERT_EQ(view.values.size(), w.table.NumRows());
    for (size_t r = 0; r < w.table.NumRows(); ++r) {
      EXPECT_EQ(view.valid.Test(r), !col.IsNull(r));
      if (!col.IsNull(r)) {
        EXPECT_EQ(view.values[r], col.GetNumeric(r));
      }
    }
  }
  EXPECT_EQ(engine.Stats().column_views_built, w.table.NumColumns());
}

TEST(EvalEngineTest, ConcurrentEvaluationMatchesSerial) {
  const RandomWorld w = MakeWorld(17);
  Rng rng(99);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 64; ++i) {
    patterns.push_back(RandomPattern(w, &rng, 3));
  }
  std::vector<Bitset> serial;
  for (const auto& p : patterns) serial.push_back(p.Evaluate(w.table));

  EvalEngine engine(BorrowTable(w.table));
  std::vector<Bitset> concurrent(patterns.size());
  ThreadPool pool(4);
  pool.ParallelFor(patterns.size(), [&](size_t i) {
    concurrent[i] = engine.Evaluate(patterns[i]);
  });
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_TRUE(concurrent[i] == serial[i]) << patterns[i].ToString();
  }
}

// ---- EstimatorContext -----------------------------------------------------

TEST(EstimatorContextTest, MemoHitsReturnIdenticalEstimates) {
  SyntheticOptions opt;
  opt.num_rows = 1200;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  auto engine = std::make_shared<EvalEngine>(BorrowTable(ds.table));
  EstimatorContext est(engine, ds.dag, {});

  const Pattern treatment(
      {SimplePredicate("T1", CompareOp::kEq, Value(int64_t{5}))});
  Bitset all(ds.table.NumRows());
  all.SetAll();
  const EffectEstimate first =
      est.EstimateCate(treatment, ds.default_query.avg_attribute, all);
  const EffectEstimate second =
      est.EstimateCate(treatment, ds.default_query.avg_attribute, all);
  EXPECT_EQ(first.valid, second.valid);
  EXPECT_EQ(first.cate, second.cate);
  EXPECT_EQ(first.std_error, second.std_error);
  EXPECT_EQ(first.p_value, second.p_value);
  const EstimatorCacheStats stats = est.Stats();
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits, 1u);
}

TEST(EstimatorContextTest, CachedAndBypassEstimatesAreBitIdentical) {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  auto cached_engine = std::make_shared<EvalEngine>(
      BorrowTable(ds.table), EvalEngineOptions{.cache_enabled = true});
  auto bypass_engine = std::make_shared<EvalEngine>(
      BorrowTable(ds.table), EvalEngineOptions{.cache_enabled = false});
  EstimatorContext cached(cached_engine, ds.dag, {});
  EstimatorContext bypass(bypass_engine, ds.dag, {});

  Bitset all(ds.table.NumRows());
  all.SetAll();
  for (int64_t v = 0; v <= 6; ++v) {
    for (const char* attr : {"T1", "T2", "T3"}) {
      const Pattern treatment(
          {SimplePredicate(attr, CompareOp::kEq, Value(v))});
      const EffectEstimate a =
          cached.EstimateCate(treatment, ds.default_query.avg_attribute, all);
      const EffectEstimate b =
          bypass.EstimateCate(treatment, ds.default_query.avg_attribute, all);
      ASSERT_EQ(a.valid, b.valid) << attr << "=" << v;
      ASSERT_EQ(a.cate, b.cate) << attr << "=" << v;
      ASSERT_EQ(a.std_error, b.std_error) << attr << "=" << v;
      ASSERT_EQ(a.p_value, b.p_value) << attr << "=" << v;
      ASSERT_EQ(a.n_treated, b.n_treated) << attr << "=" << v;
      ASSERT_EQ(a.n_used, b.n_used) << attr << "=" << v;
    }
  }
  // The bypass engine must not have populated any predicate cache.
  EXPECT_EQ(bypass_engine->Stats().bitsets_materialized, 0u);
  EXPECT_GT(cached_engine->Stats().bitsets_materialized, 0u);
}

TEST(EstimatorContextTest, SubpopulationsKeyTheMemoSeparately) {
  SyntheticOptions opt;
  opt.num_rows = 1200;
  const GeneratedDataset ds = MakeSyntheticDataset(opt);
  auto engine = std::make_shared<EvalEngine>(BorrowTable(ds.table));
  EstimatorContext est(engine, ds.dag, {});

  const Pattern treatment(
      {SimplePredicate("T1", CompareOp::kEq, Value(int64_t{5}))});
  Bitset all(ds.table.NumRows());
  all.SetAll();
  Bitset half(ds.table.NumRows());
  for (size_t r = 0; r < ds.table.NumRows() / 2; ++r) half.Set(r);

  const EffectEstimate on_all =
      est.EstimateCate(treatment, ds.default_query.avg_attribute, all);
  const EffectEstimate on_half =
      est.EstimateCate(treatment, ds.default_query.avg_attribute, half);
  EXPECT_EQ(est.Stats().memo_misses, 2u);
  EXPECT_NE(on_all.n_used, on_half.n_used);
}

}  // namespace
}  // namespace causumx
