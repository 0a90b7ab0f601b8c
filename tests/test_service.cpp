// Tests for the ExplanationService: concurrent queries over one table,
// warm-vs-cold cache behavior, LRU eviction under a tight memory budget
// (results bit-identical), session borrowing, and the registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/explanation_service.h"

namespace causumx {
namespace {

GeneratedDataset MakeData() {
  SyntheticOptions opt;
  opt.num_rows = 1500;
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

// One registered dataset shared by most tests.
struct ServiceWorld {
  GeneratedDataset ds;
  ExplanationService service;
  CauSumXConfig config;

  explicit ServiceWorld(ServiceOptions options = {})
      : ds(MakeData()), service(options), config(MakeConfig(ds)) {
    service.RegisterTable("synthetic", std::move(ds.table));
  }
};

TEST(ServiceTest, ExplainMatchesRunCauSumX) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const CauSumXResult direct =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);

  ExplanationService service;
  service.RegisterTable("synthetic", std::move(ds.table));
  const CauSumXResult via_service =
      service.Explain("synthetic", ds.default_query, ds.dag, config);

  EXPECT_EQ(SummaryToJson(via_service.summary),
            SummaryToJson(direct.summary));
  EXPECT_EQ(service.Stats().queries_executed, 1u);
}

TEST(ServiceTest, ConcurrentQueriesOnOneTableAgree) {
  ServiceWorld w;
  const CauSumXConfig config = w.config;

  // A mix of repeated identical queries: every result must agree with the
  // single-threaded reference, no matter how the threads interleave on
  // the shared caches.
  const CauSumXResult reference =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, config);
  const std::string expected = SummaryToJson(reference.summary);

  std::vector<std::future<CauSumXResult>> futures;
  for (int i = 0; i < 8; ++i) {
    CauSumXConfig c = config;
    c.num_threads = 1;  // pool-level concurrency is the parallelism source
    futures.push_back(
        w.service.ExplainAsync("synthetic", w.ds.default_query, w.ds.dag, c));
  }
  for (auto& f : futures) {
    const CauSumXResult r = f.get();
    EXPECT_EQ(SummaryToJson(r.summary), expected);
  }
  EXPECT_EQ(w.service.Stats().queries_executed, 9u);
}

TEST(ServiceTest, WarmRepeatServedFromCaches) {
  ServiceWorld w;
  const CauSumXResult cold =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  const CauSumXResult warm =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);

  // Bit-identical summaries.
  EXPECT_EQ(SummaryToJson(warm.summary), SummaryToJson(cold.summary));

  // The second run re-estimated nothing: every CATE was a memo hit and no
  // new predicate bitset was materialized (counters are cumulative on the
  // shared engine/context).
  const uint64_t new_misses = warm.cache_stats.estimator.memo_misses -
                              cold.cache_stats.estimator.memo_misses;
  const uint64_t new_hits = warm.cache_stats.estimator.memo_hits -
                            cold.cache_stats.estimator.memo_hits;
  EXPECT_EQ(new_misses, 0u);
  EXPECT_GT(new_hits, 0u);
  EXPECT_EQ(warm.cache_stats.eval.bitsets_materialized,
            cold.cache_stats.eval.bitsets_materialized);
}

TEST(ServiceTest, TightBudgetEvictsButResultsAreIdentical) {
  // The generator is deterministic, so two MakeData() calls give
  // bit-identical tables (Table itself is move-only).
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);

  ExplanationService unlimited;
  unlimited.RegisterTable("t", std::move(MakeData().table));
  const CauSumXResult free_run =
      unlimited.Explain("t", ds.default_query, ds.dag, config);

  // A budget far below what one query populates: enforcement must evict
  // after every query, keep the accounted bytes under the cap, and never
  // change a result.
  ServiceOptions tight;
  tight.memory_budget_bytes = 4 * 1024;
  ExplanationService service(tight);
  service.RegisterTable("t", std::move(ds.table));
  for (int round = 0; round < 3; ++round) {
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, config);
    EXPECT_EQ(SummaryToJson(r.summary), SummaryToJson(free_run.summary))
        << "round " << round;
    EXPECT_LE(service.CacheBytes(), tight.memory_budget_bytes)
        << "round " << round;
  }
  EXPECT_GT(service.Stats().budget_enforcements, 0u);
  const auto engine_stats = service.Engine("t")->Stats();
  EXPECT_GT(engine_stats.bitsets_evicted, 0u);
}

// A table's shard plan follows the service pool, one shard per worker:
// one thread (the serial single-shard reference) and larger pools must
// produce bit-identical summaries, and the resolved plan must respect
// the one-shard-per-64-row-block clamp (counts beyond it are covered by
// ShardPlanTest.OversizedShardCountClamps).
TEST(ServiceTest, PoolSizedShardPlansAreBitIdentical) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const size_t rows = ds.table.NumRows();

  std::string reference;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    ServiceOptions options;
    options.num_threads = threads;
    ExplanationService service(options);
    service.RegisterTable("t", std::move(MakeData().table));
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, config);
    const auto& plan = service.Engine("t")->plan();
    EXPECT_GE(plan.NumShards(), size_t{1}) << "threads=" << threads;
    EXPECT_LE(plan.NumShards(), std::min(threads, (rows + 63) / 64))
        << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(plan.NumShards(), size_t{1});
      reference = SummaryToJson(r.summary);
    } else {
      EXPECT_EQ(SummaryToJson(r.summary), reference)
          << "threads=" << threads;
    }
    EXPECT_EQ(service.Engine("t")->Stats().num_shards, plan.NumShards());
  }
}

// Per-shard cache segments evict individually under a tight budget: a
// multi-shard engine sheds (predicate, shard) segments, stays under the
// cap, and every post-eviction query still matches the unlimited run.
TEST(ServiceTest, TightBudgetEvictsPerShardSegments) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);

  ExplanationService unlimited;
  unlimited.RegisterTable("t", std::move(MakeData().table));
  const CauSumXResult free_run =
      unlimited.Explain("t", ds.default_query, ds.dag, config);

  ServiceOptions tight;
  tight.memory_budget_bytes = 4 * 1024;
  tight.num_threads = 8;  // an 8-shard plan
  ExplanationService service(tight);
  service.RegisterTable("t", std::move(ds.table));
  for (int round = 0; round < 3; ++round) {
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, config);
    EXPECT_EQ(SummaryToJson(r.summary), SummaryToJson(free_run.summary))
        << "round " << round;
    EXPECT_LE(service.CacheBytes(), tight.memory_budget_bytes)
        << "round " << round;
  }
  const auto stats = service.Engine("t")->Stats();
  EXPECT_GT(stats.num_shards, size_t{1});
  // Segment-granular accounting: with an 8-shard plan the evicted-
  // segment count exceeds what whole-bitset eviction could produce for
  // the number of predicates interned.
  EXPECT_GT(stats.bitsets_evicted, stats.predicates_interned);
  // Rebuilds after eviction happened segment-wise too (cumulative
  // builds exceed one build per (predicate, shard) pair only through
  // rematerialization).
  EXPECT_GT(stats.bitsets_materialized, 0u);
}

TEST(ServiceTest, SessionBorrowsServiceCaches) {
  ServiceWorld w;
  // Warm the caches with one service query...
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  const auto warm_stats = w.service.Engine("synthetic")->Stats();

  // ...then a borrowed session mines without re-materializing bitsets.
  ExplorationSession session = w.service.OpenSession(
      "synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_EQ(session.engine().get(), w.service.Engine("synthetic").get());
  session.Solve();
  EXPECT_EQ(session.engine()->Stats().bitsets_materialized,
            warm_stats.bitsets_materialized);
  EXPECT_GT(session.CacheStats().estimator.memo_hits, 0u);
}

// An append observer that throws is counted, never rethrown: the append
// lands and the observers registered after it still run.
TEST(ServiceTest, ThrowingAppendObserverIsCounted) {
  ServiceWorld w;
  const std::shared_ptr<const Table> base = w.service.GetTable("synthetic");
  size_t delivered = 0;
  w.service.AddAppendObserver(
      [](const std::string&, const auto&, const auto&) {
        throw std::runtime_error("observer failed");
      });
  w.service.AddAppendObserver(
      [&](const std::string&, const std::vector<std::vector<Value>>& rows,
          const std::shared_ptr<const Table>&) { delivered += rows.size(); });

  const std::shared_ptr<const Table> grown =
      w.service.Append("synthetic", base->MaterializeRows(0, 10));
  EXPECT_EQ(grown->NumRows(), base->NumRows() + 10);
  EXPECT_EQ(w.service.GetTable("synthetic"), grown);
  EXPECT_EQ(delivered, 10u);
  EXPECT_EQ(w.service.Stats().appends_executed, 1u);
  EXPECT_EQ(w.service.Stats().append_observer_failures, 1u);
}

TEST(ServiceTest, ContextsKeyedByDagAndOptions) {
  ServiceWorld w;
  const auto a = w.service.Context("synthetic", w.ds.dag, {});
  const auto b = w.service.Context("synthetic", w.ds.dag, {});
  EXPECT_EQ(a.get(), b.get());  // same pair -> same memo

  EstimatorOptions ipw;
  ipw.method = EstimationMethod::kIpw;
  const auto c = w.service.Context("synthetic", w.ds.dag, ipw);
  EXPECT_NE(a.get(), c.get());

  CausalDag other = w.ds.dag;
  other.AddNode("Extra");
  other.AddEdge("Extra", w.ds.default_query.avg_attribute);
  const auto d = w.service.Context("synthetic", other, {});
  EXPECT_NE(a.get(), d.get());
}

TEST(ServiceTest, RegistryBasics) {
  ExplanationService service;
  EXPECT_FALSE(service.HasTable("x"));
  EXPECT_THROW(service.GetTable("x"), std::out_of_range);
  EXPECT_THROW(
      service.Explain("x", GroupByAvgQuery{}, CausalDag{}, CauSumXConfig{}),
      std::out_of_range);

  GeneratedDataset ds = MakeData();
  service.RegisterTable("x", std::move(ds.table));
  EXPECT_TRUE(service.HasTable("x"));
  EXPECT_EQ(service.TableNames(), std::vector<std::string>{"x"});
  EXPECT_NE(service.Engine("x"), nullptr);

  // EnsureCsv on a registered name is a no-op keeping the live entry
  // (and its warm engine) — it must not even touch the path.
  const auto engine_before = service.Engine("x");
  const auto table_before = service.GetTable("x");
  EXPECT_EQ(service.EnsureCsv("x", "/no/such/file.csv").get(),
            table_before.get());
  EXPECT_EQ(service.Engine("x").get(), engine_before.get());

  service.DropTable("x");
  EXPECT_FALSE(service.HasTable("x"));
}

}  // namespace
}  // namespace causumx
