// Differential property harness for the sharded parallel execution
// engine: on seeded random tables (mixed categorical / numeric / null
// columns), every sharded artifact — predicate bitsets, aggregate
// views, CATE estimates, and end-to-end explanation summaries — must be
// bit-identical to the unsharded reference path, for shard counts from
// 1 to 16, with and without a thread pool, and across random append
// batches through the delta-extension path.
//
// The suite runs 20 seeds x >= 5 generated cases each (>= 100 cases
// total, counted by the shard-count/pattern draws inside each seed);
// CI executes it under ASan+UBSan and TSan.

#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "core/causumx.h"
#include "core/json_export.h"
#include "dataset/group_query.h"
#include "engine/eval_engine.h"
#include "util/shard_plan.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace causumx {
namespace {

struct RandomWorld {
  std::shared_ptr<Table> table;
  std::vector<SimplePredicate> atoms;
};

// Mixed-type table with ~6% nulls per column; 150-600 rows spans 3-10
// 64-row summation blocks, so shard counts up to 16 exercise real
// multi-shard plans (and clamping beyond them).
RandomWorld MakeWorld(uint64_t seed, size_t min_rows = 150) {
  RandomWorld w;
  Rng rng(seed);
  w.table = std::make_shared<Table>();
  w.table->AddColumn("g1", ColumnType::kCategorical);
  w.table->AddColumn("g2", ColumnType::kCategorical);
  w.table->AddColumn("t1", ColumnType::kCategorical);
  w.table->AddColumn("i1", ColumnType::kInt64);
  w.table->AddColumn("d1", ColumnType::kDouble);
  w.table->AddColumn("y", ColumnType::kDouble);
  const char* g1_vals[] = {"a", "b", "c", "d"};
  const char* g2_vals[] = {"x", "y", "z"};
  const char* t1_vals[] = {"lo", "hi"};
  const size_t n = min_rows + rng.NextBounded(450);
  for (size_t r = 0; r < n; ++r) {
    const double base = rng.NextGaussian() * 3.0;
    w.table->AddRow({
        rng.NextBool(0.06) ? Value() : Value(g1_vals[rng.NextBounded(4)]),
        rng.NextBool(0.06) ? Value() : Value(g2_vals[rng.NextBounded(3)]),
        rng.NextBool(0.06) ? Value() : Value(t1_vals[rng.NextBounded(2)]),
        rng.NextBool(0.06) ? Value() : Value(rng.NextInt(0, 9)),
        rng.NextBool(0.06) ? Value() : Value(rng.NextGaussian()),
        rng.NextBool(0.06) ? Value() : Value(1e6 + base + rng.NextDouble()),
    });
  }
  w.atoms = {
      SimplePredicate("g1", CompareOp::kEq, Value("a")),
      SimplePredicate("g1", CompareOp::kEq, Value("b")),
      SimplePredicate("g2", CompareOp::kEq, Value("x")),
      SimplePredicate("t1", CompareOp::kEq, Value("hi")),
      SimplePredicate("i1", CompareOp::kLt, Value(int64_t{5})),
      SimplePredicate("i1", CompareOp::kGe, Value(int64_t{2})),
      SimplePredicate("d1", CompareOp::kGt, Value(0.0)),
      SimplePredicate("d1", CompareOp::kLe, Value(0.8)),
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

std::shared_ptr<EvalEngine> MakeShardedEngine(
    const std::shared_ptr<Table>& table, size_t shards,
    std::shared_ptr<ThreadPool> pool) {
  EvalEngineOptions options;
  options.cache_enabled = true;
  options.num_shards = shards;
  options.pool = std::move(pool);
  return std::make_shared<EvalEngine>(
      std::shared_ptr<const Table>(table), std::move(options));
}

void ExpectViewsIdentical(const AggregateView& a, const AggregateView& b,
                          size_t num_rows, const std::string& context) {
  ASSERT_EQ(a.NumGroups(), b.NumGroups()) << context;
  for (size_t g = 0; g < a.NumGroups(); ++g) {
    EXPECT_EQ(a.group(g).KeyString(), b.group(g).KeyString())
        << context << " group " << g;
    EXPECT_EQ(a.group(g).count, b.group(g).count) << context << " group " << g;
    // Bit-identical averages: the blocked summation makes the sharded
    // and serial paths produce the same doubles, not just close ones.
    EXPECT_EQ(a.group(g).average, b.group(g).average)
        << context << " group " << g;
    EXPECT_TRUE(std::ranges::equal(a.group(g).rows, b.group(g).rows))
        << context << " group " << g;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    ASSERT_EQ(a.GroupOfRow(r), b.GroupOfRow(r)) << context << " row " << r;
  }
}

void ExpectEstimatesIdentical(const EffectEstimate& a,
                              const EffectEstimate& b,
                              const std::string& context) {
  EXPECT_EQ(a.valid, b.valid) << context;
  EXPECT_EQ(a.cate, b.cate) << context;
  EXPECT_EQ(a.std_error, b.std_error) << context;
  EXPECT_EQ(a.p_value, b.p_value) << context;
  EXPECT_EQ(a.n_treated, b.n_treated) << context;
  EXPECT_EQ(a.n_control, b.n_control) << context;
  EXPECT_EQ(a.n_used, b.n_used) << context;
}

class ShardedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Case family 1: predicate bitsets and pattern evaluation, sharded vs
// the cache-bypass reference, over 5 random shard counts per seed.
TEST_P(ShardedPropertyTest, BitsetsMatchReferenceAcrossShardCounts) {
  const RandomWorld w = MakeWorld(GetParam() * 101 + 11);
  Rng rng(GetParam() * 13 + 1);
  auto pool = std::make_shared<ThreadPool>(3);
  EvalEngine bypass(w.table, EvalEngineOptions{.cache_enabled = false});
  for (int trial = 0; trial < 5; ++trial) {
    const size_t shards = 1 + rng.NextBounded(16);
    auto engine = MakeShardedEngine(w.table, shards, pool);
    for (int i = 0; i < 6; ++i) {
      const Pattern p = RandomPattern(w, &rng, 3);
      const Bitset expected = bypass.Evaluate(p);
      ASSERT_TRUE(engine->Evaluate(p) == expected)
          << "shards=" << shards << " " << p.ToString();
      // Single-atom segments assemble back to the reference bitset.
      const SimplePredicate& atom = p.predicates().front();
      ASSERT_TRUE(*engine->PredicateBits(engine->Intern(atom)) ==
                  Pattern({atom}).Evaluate(*w.table))
          << "shards=" << shards << " " << atom.ToString();
    }
    // Numeric views are exact regardless of the plan.
    const auto d1 = w.table->ColumnIndex("d1");
    const NumericColumnView& view = engine->Numeric(*d1);
    EvalEngine serial(w.table, EvalEngineOptions{.cache_enabled = true});
    const NumericColumnView& ref = serial.Numeric(*d1);
    ASSERT_TRUE(view.valid == ref.valid);
    for (size_t r = 0; r < w.table->NumRows(); ++r) {
      if (view.valid.Test(r)) {
        ASSERT_EQ(view.values[r], ref.values[r]) << "row " << r;
      }
    }
  }
}

// Case family 2: aggregate views — serial overload, sharded overloads
// (several plans, pooled and pool-less), and the string-keyed oracle.
TEST_P(ShardedPropertyTest, AggregateViewsMatchAcrossShardCounts) {
  const RandomWorld w = MakeWorld(GetParam() * 103 + 7);
  Rng rng(GetParam() * 17 + 2);
  auto pool = std::make_shared<ThreadPool>(3);
  for (int trial = 0; trial < 5; ++trial) {
    GroupByAvgQuery q;
    q.group_by = rng.NextBool(0.5)
                     ? std::vector<std::string>{"g1"}
                     : std::vector<std::string>{"g1", "g2"};
    q.avg_attribute = "y";
    if (rng.NextBool(0.4)) {
      q.where = Pattern({w.atoms[rng.NextBounded(w.atoms.size())]});
    }
    const AggregateView serial = AggregateView::Evaluate(*w.table, q);
    const AggregateView oracle =
        AggregateView::EvaluateReference(*w.table, q);
    ExpectViewsIdentical(serial, oracle, w.table->NumRows(), "vs oracle");
    const size_t shards = 1 + rng.NextBounded(16);
    const ShardPlan plan = ShardPlan::ForShardCount(
        w.table->NumRows(), shards, /*auto_shards=*/1);
    const AggregateView pooled =
        AggregateView::Evaluate(*w.table, q, plan, pool.get());
    ExpectViewsIdentical(serial, pooled, w.table->NumRows(),
                         "pooled shards=" + std::to_string(shards));
    const AggregateView poolless =
        AggregateView::Evaluate(*w.table, q, plan, nullptr);
    ExpectViewsIdentical(serial, poolless, w.table->NumRows(),
                         "pool-less shards=" + std::to_string(shards));
  }
}

// Case family 3: CATE estimates through sharded engines are bit-identical
// to the single-shard path (both estimator methods).
TEST_P(ShardedPropertyTest, CatesMatchAcrossShardCounts) {
  const RandomWorld w = MakeWorld(GetParam() * 107 + 3);
  Rng rng(GetParam() * 19 + 3);
  auto pool = std::make_shared<ThreadPool>(3);
  CausalDag dag;
  dag.AddEdge("g2", "t1");
  dag.AddEdge("g2", "y");
  dag.AddEdge("d1", "t1");
  dag.AddEdge("d1", "y");
  dag.AddEdge("t1", "y");
  for (int m = 0; m < 2; ++m) {
    EstimatorOptions opt;
    opt.min_group_size = 3;
    opt.method = m == 0 ? EstimationMethod::kRegressionAdjustment
                        : EstimationMethod::kIpw;
    auto serial_engine = MakeShardedEngine(w.table, 1, nullptr);
    EstimatorContext serial_ctx(serial_engine, dag, opt);
    const size_t shards = 2 + rng.NextBounded(15);
    auto sharded_engine = MakeShardedEngine(w.table, shards, pool);
    EstimatorContext sharded_ctx(sharded_engine, dag, opt);
    for (int trial = 0; trial < 4; ++trial) {
      const Pattern treatment(
          {w.atoms[3 + rng.NextBounded(w.atoms.size() - 3)]});
      const Pattern subpop_pattern = RandomPattern(w, &rng, 1);
      const Bitset subpop = subpop_pattern.Evaluate(*w.table);
      ExpectEstimatesIdentical(
          serial_ctx.EstimateCate(treatment, "y", subpop),
          sharded_ctx.EstimateCate(treatment, "y", subpop),
          "method=" + std::to_string(m) +
              " shards=" + std::to_string(shards) + " " +
              treatment.ToString());
    }
  }
}

// Case family 4: end-to-end summaries — RunCauSumX at threads=1 (one
// shard) versus runs on explicitly sharded engines over a 3-worker pool
// render identical JSON.
TEST_P(ShardedPropertyTest, EndToEndSummariesMatch) {
  const RandomWorld w = MakeWorld(GetParam() * 109 + 5);
  Rng rng(GetParam() * 23 + 4);
  GroupByAvgQuery q;
  q.group_by = {"g1"};
  q.avg_attribute = "y";
  CausalDag dag;
  dag.AddEdge("t1", "y");
  dag.AddEdge("i1", "y");
  dag.AddEdge("d1", "y");
  CauSumXConfig base_config;
  base_config.k = 3;
  base_config.theta = 0.5;
  base_config.apriori_support = 0.05;
  base_config.estimator.min_group_size = 3;
  base_config.treatment.alpha = 0.5;
  base_config.grouping_attribute_allowlist = {"g2"};

  CauSumXConfig serial_config = base_config;
  serial_config.num_threads = 1;
  const CauSumXResult serial = RunCauSumX(*w.table, q, dag, serial_config);

  auto pool = std::make_shared<ThreadPool>(3);
  for (const size_t shards : {2, 7, 16}) {
    const CauSumXResult sharded =
        RunCauSumX(*w.table, q, dag, base_config,
                   MakeShardedEngine(w.table, shards, pool));
    EXPECT_EQ(SummaryToJson(serial.summary), SummaryToJson(sharded.summary))
        << "shards=" << shards;
    EXPECT_EQ(serial.view.NumGroups(), sharded.view.NumGroups());
  }
  // The greedy solver's parallel marginal-gain scan must pick the same
  // explanations as the serial scan.
  CauSumXConfig greedy_serial = base_config;
  greedy_serial.solver = FinalStepSolver::kGreedy;
  greedy_serial.num_threads = 1;
  CauSumXConfig greedy_sharded = base_config;
  greedy_sharded.solver = FinalStepSolver::kGreedy;
  EXPECT_EQ(
      SummaryToJson(RunCauSumX(*w.table, q, dag, greedy_serial).summary),
      SummaryToJson(RunCauSumX(*w.table, q, dag, greedy_sharded,
                               MakeShardedEngine(w.table, 5, pool),
                               nullptr, pool.get())
                        .summary));
}

// Case family 5: random append batches through the delta-extension path.
// A warm sharded engine extended by a delta must agree with fresh
// engines (sharded and unsharded) over the grown table, and the sharded
// view of the grown table must agree with the serial view.
TEST_P(ShardedPropertyTest, AppendsPreserveShardedEquivalence) {
  const RandomWorld w = MakeWorld(GetParam() * 113 + 9, /*min_rows=*/200);
  Rng rng(GetParam() * 29 + 5);
  auto pool = std::make_shared<ThreadPool>(3);
  const size_t total = w.table->NumRows();
  const size_t base_rows = total / 2 + rng.NextBounded(total / 4);

  auto base = std::make_shared<Table>(w.table->Head(base_rows));
  const size_t shards = 1 + rng.NextBounded(16);
  auto warm = MakeShardedEngine(base, shards, pool);
  // Warm a random subset of atoms (some segments cached, some not).
  std::vector<Pattern> warmed;
  for (const auto& atom : w.atoms) {
    if (rng.NextBool(0.6)) {
      warmed.push_back(Pattern({atom}));
      warm->Evaluate(warmed.back());
    }
  }
  warm->Numeric(*base->ColumnIndex("y"));

  // Apply 1-3 append batches, extending the engine after each.
  std::shared_ptr<const Table> current = base;
  std::shared_ptr<EvalEngine> extended = warm;
  size_t at = base_rows;
  const int batches = 1 + static_cast<int>(rng.NextBounded(3));
  for (int b = 0; b < batches && at < total; ++b) {
    const size_t next =
        b == batches - 1 ? total
                         : std::min(total, at + 1 + rng.NextBounded(
                                               (total - at) / 2 + 1));
    auto grown = std::make_shared<Table>(current->Clone());
    grown->AppendRows(w.table->MaterializeRows(at, next));
    extended = std::make_shared<EvalEngine>(
        std::shared_ptr<const Table>(grown), *extended);
    current = grown;
    at = next;
  }

  EvalEngine bypass(current, EvalEngineOptions{.cache_enabled = false});
  auto fresh_sharded = MakeShardedEngine(
      std::make_shared<Table>(current->Clone()), shards, pool);
  for (int i = 0; i < 8; ++i) {
    const Pattern p = RandomPattern(w, &rng, 3);
    const Bitset expected = bypass.Evaluate(p);
    ASSERT_TRUE(extended->Evaluate(p) == expected)
        << "extended shards=" << shards << " " << p.ToString();
    ASSERT_TRUE(fresh_sharded->Evaluate(p) == expected)
        << "fresh shards=" << shards << " " << p.ToString();
  }

  GroupByAvgQuery q;
  q.group_by = {"g1", "g2"};
  q.avg_attribute = "y";
  const AggregateView serial = AggregateView::Evaluate(*current, q);
  const AggregateView sharded = AggregateView::Evaluate(
      *current, q, extended->plan(), pool.get());
  ExpectViewsIdentical(serial, sharded, current->NumRows(),
                       "post-append view");
}

// Case family 6: kernel dispatch tiers. Every tier must reproduce the
// cache-bypass reference bitsets, the serial aggregate view, and the
// CATE estimates bit for bit — dispatch is a throughput decision and
// may not leak into results.
TEST_P(ShardedPropertyTest, TiersAreBitIdentical) {
  const RandomWorld w = MakeWorld(GetParam() * 127 + 13);
  Rng rng(GetParam() * 31 + 6);
  auto pool = std::make_shared<ThreadPool>(3);

  std::vector<Pattern> patterns;
  for (int i = 0; i < 6; ++i) patterns.push_back(RandomPattern(w, &rng, 3));
  GroupByAvgQuery q;
  q.group_by = {"g1", "g2"};
  q.avg_attribute = "y";
  q.where = patterns[0];
  CausalDag dag;
  dag.AddEdge("t1", "y");
  dag.AddEdge("d1", "y");
  const Pattern treatment({w.atoms[3]});
  Bitset subpop(w.table->NumRows());
  subpop.SetAll();

  // References, computed at whatever tier the process started with.
  EvalEngine bypass(w.table, EvalEngineOptions{.cache_enabled = false});
  std::vector<Bitset> expected_bits;
  for (const Pattern& p : patterns) expected_bits.push_back(bypass.Evaluate(p));
  const AggregateView expected_view = AggregateView::Evaluate(*w.table, q);
  EstimatorOptions est_opt;
  est_opt.min_group_size = 3;
  EstimatorContext ref_ctx(MakeShardedEngine(w.table, 1, nullptr), dag,
                           est_opt);
  const EffectEstimate expected_cate =
      ref_ctx.EstimateCate(treatment, "y", subpop);

  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  if (KernelTierSupported(KernelTier::kAvx2)) {
    tiers.push_back(KernelTier::kAvx2);
  }
  const KernelTier initial = ActiveKernelTier();
  const size_t shards = 1 + rng.NextBounded(16);
  for (KernelTier tier : tiers) {
    ASSERT_TRUE(SetKernelTier(tier));
    EvalEngineOptions options;
    options.cache_enabled = true;
    options.num_shards = shards;
    options.pool = pool;
    auto engine = std::make_shared<EvalEngine>(
        std::shared_ptr<const Table>(w.table), options);
    const std::string context = std::string("tier=") + KernelTierName(tier) +
                                " shards=" + std::to_string(shards);
    for (size_t i = 0; i < patterns.size(); ++i) {
      ASSERT_TRUE(engine->Evaluate(patterns[i]) == expected_bits[i])
          << context << " " << patterns[i].ToString();
    }
    EstimatorContext ctx(engine, dag, est_opt);
    ExpectEstimatesIdentical(ctx.EstimateCate(treatment, "y", subpop),
                             expected_cate, context);
    const AggregateView view =
        AggregateView::Evaluate(*w.table, q, ShardPlan(w.table->NumRows()),
                                pool.get());
    ExpectViewsIdentical(view, expected_view, w.table->NumRows(),
                         std::string("view tier=") + KernelTierName(tier));
  }
  SetKernelTier(initial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// Shard-plan invariants: full disjoint coverage, block alignment, clamping
// of out-of-range shard counts, and boundary stability under extension.
TEST(ShardPlanTest, CoverageAlignmentAndClamping) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = rng.NextBounded(5000);
    const size_t requested = rng.NextBounded(40);  // 0 = auto
    const ShardPlan plan =
        ShardPlan::ForShardCount(rows, requested, /*auto_shards=*/4);
    const size_t shards = plan.NumShards();
    ASSERT_GE(shards, size_t{1});
    if (requested > 0) {
      ASSERT_LE(shards, std::max<size_t>(1, requested));
    }
    size_t covered = 0;
    for (size_t s = 0; s < shards; ++s) {
      ASSERT_EQ(plan.ShardBegin(s), covered);
      ASSERT_LE(plan.ShardEnd(s), rows);
      if (s + 1 < shards) {
        ASSERT_GT(plan.ShardEnd(s), plan.ShardBegin(s));
        ASSERT_EQ(plan.ShardEnd(s) % 64, size_t{0}) << "unaligned boundary";
      }
      covered = plan.ShardEnd(s);
    }
    ASSERT_EQ(covered, rows);
    for (size_t r = 0; r < rows; r += 37) {
      const size_t s = plan.ShardOfRow(r);
      ASSERT_GE(r, plan.ShardBegin(s));
      ASSERT_LT(r, plan.ShardEnd(s));
    }
  }
}

TEST(ShardPlanTest, ExtensionKeepsInteriorBoundaries) {
  // An appended table is planned with its base's shard size (what an
  // EvalEngine derivation does).
  const ShardPlan plan = ShardPlan::ForShardCount(1000, 8, 1);
  const ShardPlan grown(1700, plan.shard_rows());
  ASSERT_EQ(grown.shard_rows(), plan.shard_rows());
  for (size_t s = 0; s + 1 < plan.NumShards(); ++s) {
    EXPECT_EQ(grown.ShardBegin(s), plan.ShardBegin(s));
    EXPECT_EQ(grown.ShardEnd(s), plan.ShardEnd(s));
  }
  EXPECT_GE(grown.NumShards(), plan.NumShards());
  EXPECT_EQ(grown.ShardEnd(grown.NumShards() - 1), size_t{1700});
}

// A shard count far beyond the row count clamps to one shard per 64-row
// block and still evaluates correctly.
TEST(ShardPlanTest, OversizedShardCountClamps) {
  const ShardPlan plan = ShardPlan::ForShardCount(100, 1000000, 1);
  EXPECT_EQ(plan.shard_rows(), size_t{64});
  EXPECT_EQ(plan.NumShards(), size_t{2});
  const ShardPlan empty = ShardPlan::ForShardCount(0, 5, 1);
  EXPECT_EQ(empty.NumShards(), size_t{1});
  EXPECT_EQ(empty.ShardEnd(0), size_t{0});
}

}  // namespace
}  // namespace causumx
