// Tests for the ExplanationService: concurrent queries over one table,
// warm-vs-cold cache behavior, LRU eviction under a tight memory budget
// (results bit-identical), session borrowing, and the registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "causal/dag_io.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/batch.h"
#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "util/json.h"

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

  // The repeat reused the mined candidates: phase 3 ran alone, so the
  // memo saw no lookup at all and no predicate bitset was materialized
  // (counters are cumulative on the shared engine/context).
  EXPECT_EQ(warm.cache_stats.estimator.memo_misses,
            cold.cache_stats.estimator.memo_misses);
  EXPECT_EQ(warm.cache_stats.estimator.memo_hits,
            cold.cache_stats.estimator.memo_hits);
  EXPECT_EQ(warm.cache_stats.eval.bitsets_materialized,
            cold.cache_stats.eval.bitsets_materialized);
  const ServiceStats stats = w.service.Stats();
  EXPECT_EQ(stats.candidate_misses, 1u);
  EXPECT_EQ(stats.candidate_hits, 1u);
  EXPECT_GT(stats.candidate_bytes, 0u);
  EXPECT_GE(stats.cache_bytes, stats.candidate_bytes);
  // A hit reports the selection phase only; the miss mined.
  EXPECT_GT(cold.timings.phases().count("treatment"), 0u);
  EXPECT_EQ(warm.timings.phases().count("treatment"), 0u);
  EXPECT_GT(warm.timings.phases().count("selection"), 0u);
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

// Cold JSONL batch lines over `table`, one per apriori support: three
// distinct mining keys, plus a repeat of the first with another k.
std::vector<std::string> ColdBatchLines(const GeneratedDataset& ds,
                                        const std::string& table) {
  std::vector<std::string> lines;
  for (const char* support : {"0.1", "0.15", "0.2", "0.1"}) {
    JsonWriter w;
    w.BeginObject()
        .Key("id").String("q" + std::to_string(lines.size()))
        .Key("table").String(table)
        .Key("group_by").BeginArray();
    for (const std::string& g : ds.default_query.group_by) w.String(g);
    w.EndArray()
        .Key("avg").String(ds.default_query.avg_attribute)
        .Key("dag_text").String(DagToText(ds.dag))
        .Key("grouping_attrs").BeginArray();
    for (const std::string& g : ds.grouping_attribute_hint) w.String(g);
    w.EndArray().Key("treatment_attrs").BeginArray();
    for (const std::string& t : ds.treatment_attribute_hint) w.String(t);
    w.EndArray()
        .Key("per_group_patterns").Bool(false)
        .Key("support").Raw(support)
        .Key("k").Uint(lines.size() == 3 ? 2 : 5)
        .EndObject();
    lines.push_back(w.str());
  }
  return lines;
}

// The "summary" member of a batch result line (its last member).
std::string BatchSummaryJson(const std::string& line) {
  const std::string tag = "\"summary\":";
  const size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << line;
  if (at == std::string::npos) return "";
  return line.substr(at + tag.size(), line.size() - at - tag.size() - 1);
}

// A table's shard plan follows the service pool, one shard per worker:
// every pool size must produce the serial run's summaries, and the
// resolved plan must respect the one-shard-per-64-row-block clamp
// (counts beyond it are covered by ShardPlanTest.OversizedShardCountClamps).
// At each size a cold batch (requests on pool workers that mine with
// ParallelFor on the same pool) and a library Explain asking for 5
// threads (which mines on the service pool all the same) must finish
// and agree with the serial runs too.
TEST(ServiceTest, PoolSizedShardPlansAreBitIdentical) {
  GeneratedDataset ds = MakeData();
  const size_t rows = ds.table.NumRows();
  CauSumXConfig serial = MakeConfig(ds);
  serial.num_threads = 1;
  const std::string reference =
      SummaryToJson(RunCauSumX(ds.table, ds.default_query, ds.dag, serial)
                        .summary);

  const std::vector<std::string> lines = ColdBatchLines(ds, "batch");
  std::vector<std::string> batch_reference;
  for (const std::string& line : lines) {
    BoundExplain bound =
        ParseQueryRequest(JsonValue::Parse(line)).Bind(ds.table);
    bound.config.num_threads = 1;
    batch_reference.push_back(SummaryToJson(
        RunCauSumX(ds.table, bound.query, bound.dag, bound.config).summary,
        &bound.query));
  }

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.num_threads = threads;
    ExplanationService service(options);
    service.RegisterTable("t", std::move(MakeData().table));
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, MakeConfig(ds));
    EXPECT_EQ(SummaryToJson(r.summary), reference);
    const auto& plan = service.Engine("t")->plan();
    EXPECT_GE(plan.NumShards(), size_t{1});
    EXPECT_LE(plan.NumShards(), std::min(threads, (rows + 63) / 64));
    if (threads == 1) {
      EXPECT_EQ(plan.NumShards(), size_t{1});
    }
    EXPECT_EQ(service.Engine("t")->Stats().num_shards, plan.NumShards());

    service.RegisterTable("batch", std::move(MakeData().table));
    std::string input;
    for (const std::string& line : lines) input += line + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    const BatchSummary summary = RunBatch(service, in, out);
    EXPECT_EQ(summary.succeeded, lines.size());
    std::istringstream results(out.str());
    std::string line;
    for (size_t i = 0; std::getline(results, line); ++i) {
      ASSERT_LT(i, batch_reference.size());
      EXPECT_EQ(BatchSummaryJson(line), batch_reference[i]) << "line " << i;
    }
    EXPECT_EQ(service.Stats().candidate_misses, 1u + 3u);

    service.RegisterTable("lib", std::move(MakeData().table));
    CauSumXConfig five = MakeConfig(ds);
    five.num_threads = 5;
    EXPECT_EQ(SummaryToJson(
                  service.Explain("lib", ds.default_query, ds.dag, five)
                      .summary),
              reference);
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

TEST(ServiceTest, ReSolveBorrowsServiceCaches) {
  ServiceWorld w;
  // Warm the caches with one service query...
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  const auto warm_stats = w.service.Engine("synthetic")->Stats();

  // ...then a re-solve and a drill-down run on them without
  // re-materializing bitsets.
  CauSumXConfig resolve = w.config;
  resolve.k = 2;
  const CauSumXResult r =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, resolve);
  w.service.TopTreatments("synthetic", w.ds.default_query, w.ds.dag,
                          w.config, Pattern(), TreatmentSign::kPositive, 3);
  EXPECT_EQ(w.service.Engine("synthetic")->Stats().bitsets_materialized,
            warm_stats.bitsets_materialized);
  EXPECT_GT(r.cache_stats.estimator.memo_hits, 0u);
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

// ---- the candidate cache ---------------------------------------------------

// k, theta, the solver, the rounding draws, the seed and the thread count
// only steer phase 3: each change is served from the mined candidates and
// equals a fresh RunCauSumX bit for bit.
TEST(CandidateCacheTest, PhaseThreeChangesAreHitsAndBitIdentical) {
  ServiceWorld w;
  const std::shared_ptr<const Table> table = w.service.GetTable("synthetic");
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  ASSERT_EQ(w.service.Stats().candidate_misses, 1u);

  std::vector<CauSumXConfig> variants;
  for (size_t k : {1, 3, 8}) {
    variants.push_back(w.config);
    variants.back().k = k;
  }
  for (double theta : {0.3, 0.5, 1.0}) {
    variants.push_back(w.config);
    variants.back().theta = theta;
  }
  for (FinalStepSolver solver :
       {FinalStepSolver::kGreedy, FinalStepSolver::kExact}) {
    variants.push_back(w.config);
    variants.back().solver = solver;
  }
  variants.push_back(w.config);
  variants.back().rounding_rounds = 7;
  variants.push_back(w.config);
  variants.back().seed = 99;
  variants.push_back(w.config);
  variants.back().num_threads = 1;

  for (size_t i = 0; i < variants.size(); ++i) {
    const CauSumXConfig& c = variants[i];
    EXPECT_EQ(MiningKey(w.ds.default_query, c),
              MiningKey(w.ds.default_query, w.config));
    const CauSumXResult served =
        w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, c);
    const CauSumXResult fresh =
        RunCauSumX(*table, w.ds.default_query, w.ds.dag, c);
    EXPECT_EQ(SummaryToJson(served.summary), SummaryToJson(fresh.summary))
        << "variant " << i;
    EXPECT_EQ(served.num_grouping_candidates, fresh.num_grouping_candidates);
    EXPECT_EQ(served.num_candidates_with_treatment,
              fresh.num_candidates_with_treatment);
    EXPECT_EQ(served.treatment_patterns_evaluated,
              fresh.treatment_patterns_evaluated);
    EXPECT_EQ(w.service.Stats().candidate_hits, i + 1) << "variant " << i;
  }
  EXPECT_EQ(w.service.Stats().candidate_misses, 1u);
}

// Every field mining reads is part of the key: changing one mines anew.
TEST(CandidateCacheTest, EveryMiningFieldChangeIsAMiss) {
  ServiceWorld w;
  using Mutation = void (*)(GroupByAvgQuery*, CauSumXConfig*);
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"where",
       [](GroupByAvgQuery* q, CauSumXConfig*) {
         q->where = Pattern({SimplePredicate("T1", CompareOp::kEq,
                                             Value(int64_t{1}))});
       }},
      {"apriori_support",
       [](GroupByAvgQuery*, CauSumXConfig* c) { c->apriori_support = 0.2; }},
      {"apriori.max_length",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->grouping.apriori.max_length = 2;
       }},
      {"apriori.max_values_per_attribute",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->grouping.apriori.max_values_per_attribute = 5;
       }},
      {"include_per_group_patterns",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->grouping.include_per_group_patterns = true;
       }},
      {"treatment.max_depth",
       [](GroupByAvgQuery*, CauSumXConfig* c) { c->treatment.max_depth = 2; }},
      {"treatment.near_zero_fraction",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.near_zero_fraction = 0.1;
       }},
      {"treatment.level_keep_fraction",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.level_keep_fraction = 0.25;
       }},
      {"treatment.max_level_width",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.max_level_width = 8;
       }},
      {"treatment.max_values_per_attribute",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.max_values_per_attribute = 3;
       }},
      {"treatment.numeric_bins",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.numeric_bins = 3;
       }},
      {"treatment.alpha",
       [](GroupByAvgQuery*, CauSumXConfig* c) { c->treatment.alpha = 0.01; }},
      {"treatment.min_treated_fraction",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment.min_treated_fraction = 0.05;
       }},
      {"mine_negative",
       [](GroupByAvgQuery*, CauSumXConfig* c) { c->mine_negative = false; }},
      {"treatment_attribute_allowlist",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->treatment_attribute_allowlist.pop_back();
       }},
      {"grouping_attribute_allowlist",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->grouping_attribute_allowlist.pop_back();
       }},
      {"estimator.min_group_size",
       [](GroupByAvgQuery*, CauSumXConfig* c) {
         c->estimator.min_group_size = 20;
       }},
  };
  const std::string base_key = MiningKey(w.ds.default_query, w.config);
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  uint64_t misses = 1;
  for (const auto& [field, mutate] : mutations) {
    GroupByAvgQuery query = w.ds.default_query;
    CauSumXConfig config = w.config;
    mutate(&query, &config);
    EXPECT_NE(MiningKey(query, config), base_key) << field;
    w.service.Explain("synthetic", query, w.ds.dag, config);
    EXPECT_EQ(w.service.Stats().candidate_misses, ++misses) << field;
    EXPECT_EQ(w.service.Stats().candidate_hits, 0u) << field;
  }
  // The estimator options that MiningKey also covers select another
  // context slot, whose cache starts empty.
  for (const auto& [field, mutate] :
       std::vector<std::pair<const char*, Mutation>>{
           {"estimator.sample_cap",
            [](GroupByAvgQuery*, CauSumXConfig* c) {
              c->estimator.sample_cap = 500;
            }},
           {"estimator.sample_seed",
            [](GroupByAvgQuery*, CauSumXConfig* c) {
              c->estimator.sample_seed = 3;
            }},
           {"estimator.max_onehot_levels",
            [](GroupByAvgQuery*, CauSumXConfig* c) {
              c->estimator.max_onehot_levels = 4;
            }},
           {"estimator.method",
            [](GroupByAvgQuery*, CauSumXConfig* c) {
              c->estimator.method = EstimationMethod::kIpw;
            }},
           {"estimator.propensity_clip",
            [](GroupByAvgQuery*, CauSumXConfig* c) {
              c->estimator.propensity_clip = 0.05;
            }}}) {
    GroupByAvgQuery query = w.ds.default_query;
    CauSumXConfig config = w.config;
    mutate(&query, &config);
    EXPECT_NE(MiningKey(query, config), base_key) << field;
  }
  // grouping.apriori.min_support is overridden by apriori_support, so it
  // is not part of the key.
  CauSumXConfig overridden = w.config;
  overridden.grouping.apriori.min_support = 0.5;
  EXPECT_EQ(MiningKey(w.ds.default_query, overridden), base_key);
}

// An append or a re-registration builds fresh contexts: the mined
// candidates of the old rows are gone, and the next explain mines anew.
TEST(CandidateCacheTest, AppendAndReregistrationDropEntries) {
  ServiceWorld w;
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_GT(w.service.Stats().candidate_bytes, 0u);

  const std::shared_ptr<const Table> base = w.service.GetTable("synthetic");
  w.service.Append("synthetic", base->MaterializeRows(0, 50));
  EXPECT_EQ(w.service.Stats().candidate_bytes, 0u);
  const CauSumXResult grown =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_EQ(w.service.Stats().candidate_misses, 2u);
  EXPECT_EQ(w.service.Stats().candidate_hits, 0u);
  const CauSumXResult fresh =
      RunCauSumX(*w.service.GetTable("synthetic"), w.ds.default_query,
                 w.ds.dag, w.config);
  EXPECT_EQ(SummaryToJson(grown.summary), SummaryToJson(fresh.summary));

  w.service.RegisterTable("synthetic", MakeData().table);
  EXPECT_EQ(w.service.Stats().candidate_bytes, 0u);
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_EQ(w.service.Stats().candidate_misses, 3u);
  EXPECT_EQ(w.service.Stats().candidate_hits, 0u);
}

// Under a 4 KiB budget the candidate entries are evicted (each is larger
// than the budget), repeats mine again, and every answer is unchanged.
TEST(CandidateCacheTest, TightBudgetEvictsEntriesAndAnswersStayIdentical) {
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const CauSumXResult reference =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);

  ServiceOptions tight;
  tight.memory_budget_bytes = 4 * 1024;
  ExplanationService service(tight);
  service.RegisterTable("t", std::move(ds.table));
  for (int round = 0; round < 3; ++round) {
    const CauSumXResult r =
        service.Explain("t", ds.default_query, ds.dag, config);
    EXPECT_EQ(SummaryToJson(r.summary), SummaryToJson(reference.summary))
        << "round " << round;
    EXPECT_LE(service.CacheBytes(), tight.memory_budget_bytes);
    EXPECT_EQ(service.Stats().candidate_bytes, 0u) << "round " << round;
  }
  EXPECT_EQ(service.Stats().candidate_misses, 3u);
  EXPECT_EQ(service.Stats().candidate_hits, 0u);
}

// Concurrent explains of one mining key, cold, with different phase-3
// parameters: each answer equals its fresh RunCauSumX, and the entry
// that stays resident serves a later hit.
TEST(CandidateCacheTest, ConcurrentColdExplainsOnOneKeyAgree) {
  ServiceWorld w;
  const std::shared_ptr<const Table> table = w.service.GetTable("synthetic");
  std::vector<CauSumXConfig> configs;
  std::vector<std::future<CauSumXResult>> futures;
  for (size_t i = 0; i < 8; ++i) {
    CauSumXConfig c = w.config;
    c.k = 1 + i % 4;
    c.num_threads = 1;
    configs.push_back(c);
    futures.push_back(
        w.service.ExplainAsync("synthetic", w.ds.default_query, w.ds.dag, c));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const CauSumXResult r = futures[i].get();
    const CauSumXResult fresh =
        RunCauSumX(*table, w.ds.default_query, w.ds.dag, configs[i]);
    EXPECT_EQ(SummaryToJson(r.summary), SummaryToJson(fresh.summary)) << i;
  }
  const ServiceStats stats = w.service.Stats();
  EXPECT_EQ(stats.candidate_hits + stats.candidate_misses, 8u);
  EXPECT_GE(stats.candidate_misses, 1u);
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_EQ(w.service.Stats().candidate_hits, stats.candidate_hits + 1);
}

// Concurrent cold explains of one query mine it once: the callers that
// arrive while the first one mines wait for its result and count as
// hits.
TEST(CandidateCacheTest, ConcurrentColdExplainsMineOnce) {
  ServiceOptions options;
  options.num_threads = 2;
  ServiceWorld w(options);
  std::vector<std::future<CauSumXResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(w.service.ExplainAsync("synthetic", w.ds.default_query,
                                             w.ds.dag, w.config));
  }
  std::vector<std::string> summaries;
  for (auto& f : futures) summaries.push_back(SummaryToJson(f.get().summary));
  for (const std::string& s : summaries) EXPECT_EQ(s, summaries[0]);
  EXPECT_EQ(w.service.Stats().candidate_misses, 1u);
  EXPECT_EQ(w.service.Stats().candidate_hits, 3u);
}

// A mine that throws leaves no entry behind: every concurrent caller
// receives the error, nothing is accounted, and a later call mines
// afresh.
TEST(CandidateCacheTest, ThrowingMineLeavesNoEntry) {
  ServiceOptions options;
  options.num_threads = 2;
  ServiceWorld w(options);
  GroupByAvgQuery bad = w.ds.default_query;
  bad.avg_attribute = "no_such_column";
  std::vector<std::future<CauSumXResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        w.service.ExplainAsync("synthetic", bad, w.ds.dag, w.config));
  }
  for (auto& f : futures) EXPECT_THROW(f.get(), std::exception);
  const ServiceStats stats = w.service.Stats();
  EXPECT_GE(stats.candidate_misses, 1u);
  EXPECT_EQ(stats.candidate_hits, 0u);
  EXPECT_EQ(stats.candidate_bytes, 0u);

  EXPECT_THROW(w.service.Explain("synthetic", bad, w.ds.dag, w.config),
               std::exception);
  EXPECT_EQ(w.service.Stats().candidate_misses, stats.candidate_misses + 1);
  w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  EXPECT_EQ(w.service.Stats().candidate_misses, stats.candidate_misses + 2);
  EXPECT_GT(w.service.Stats().candidate_bytes, 0u);
}

// Re-solving an explained query reuses the service's mined candidates:
// a new k / theta makes no memo lookup at all.
TEST(CandidateCacheTest, ReSolveReusesTheServiceEntry) {
  ServiceWorld w;
  const CauSumXResult served =
      w.service.Explain("synthetic", w.ds.default_query, w.ds.dag, w.config);
  const EstimatorCacheStats before =
      w.service.Context("synthetic", w.ds.dag, w.config.estimator)->Stats();

  EXPECT_EQ(SummaryToJson(w.service
                              .Explain("synthetic", w.ds.default_query,
                                       w.ds.dag, w.config)
                              .summary),
            SummaryToJson(served.summary));
  CauSumXConfig narrow = w.config;
  narrow.k = 2;
  narrow.theta = 0.5;
  EXPECT_EQ(SummaryToJson(w.service
                              .Explain("synthetic", w.ds.default_query,
                                       w.ds.dag, narrow)
                              .summary),
            SummaryToJson(RunCauSumX(*w.service.GetTable("synthetic"),
                                     w.ds.default_query, w.ds.dag, narrow)
                              .summary));
  CauSumXConfig greedy = w.config;
  greedy.solver = FinalStepSolver::kGreedy;
  EXPECT_EQ(SummaryToJson(w.service
                              .Explain("synthetic", w.ds.default_query,
                                       w.ds.dag, greedy)
                              .summary),
            SummaryToJson(RunCauSumX(*w.service.GetTable("synthetic"),
                                     w.ds.default_query, w.ds.dag, greedy)
                              .summary));
  const EstimatorCacheStats after =
      w.service.Context("synthetic", w.ds.dag, w.config.estimator)->Stats();
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_EQ(w.service.Stats().candidate_misses, 1u);
  EXPECT_EQ(w.service.Stats().candidate_hits, 3u);
}

}  // namespace
}  // namespace causumx
