// Unit tests for the Apriori frequent-pattern miner.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "mining/apriori.h"
#include "mining/grouping_miner.h"
#include "util/thread_pool.h"

namespace causumx {
namespace {

// 10 rows over two attributes with known supports.
Table MakeTable() {
  Table t;
  t.AddColumn("color", ColumnType::kCategorical);
  t.AddColumn("shape", ColumnType::kCategorical);
  t.AddColumn("y", ColumnType::kDouble);
  const char* colors[] = {"red", "red", "red", "red", "red",
                          "red", "blue", "blue", "blue", "green"};
  const char* shapes[] = {"circle", "circle", "circle", "square", "square",
                          "square", "circle", "circle", "square", "square"};
  for (int i = 0; i < 10; ++i) {
    t.AddRow({Value(colors[i]), Value(shapes[i]),
              Value(static_cast<double>(i))});
  }
  return t;
}

std::map<std::string, size_t> SupportByPattern(
    const std::vector<FrequentPattern>& patterns) {
  std::map<std::string, size_t> m;
  for (const auto& p : patterns) m[p.pattern.ToString()] = p.support;
  return m;
}

TEST(AprioriTest, SingleItemSupports) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.1;  // >= 1 row
  opt.max_length = 1;
  const auto patterns =
      MineFrequentPatterns(t, {"color", "shape"}, opt);
  const auto support = SupportByPattern(patterns);
  EXPECT_EQ(support.at("color = red"), 6u);
  EXPECT_EQ(support.at("color = blue"), 3u);
  EXPECT_EQ(support.at("color = green"), 1u);
  EXPECT_EQ(support.at("shape = circle"), 5u);
  EXPECT_EQ(support.at("shape = square"), 5u);
}

TEST(AprioriTest, ThresholdPrunes) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.3;  // >= 3 rows
  opt.max_length = 1;
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  const auto support = SupportByPattern(patterns);
  EXPECT_TRUE(support.count("color = red"));
  EXPECT_TRUE(support.count("color = blue"));
  EXPECT_FALSE(support.count("color = green"));
}

TEST(AprioriTest, PairConjunctions) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.2;  // >= 2 rows
  opt.max_length = 2;
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  const auto support = SupportByPattern(patterns);
  EXPECT_EQ(support.at("color = red AND shape = circle"), 3u);
  EXPECT_EQ(support.at("color = red AND shape = square"), 3u);
  EXPECT_EQ(support.at("color = blue AND shape = circle"), 2u);
  // blue+square has support 1 < 2: pruned.
  EXPECT_FALSE(support.count("color = blue AND shape = square"));
}

TEST(AprioriTest, NoSameAttributeConjunctions) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.05;
  opt.max_length = 2;
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  for (const auto& p : patterns) {
    EXPECT_EQ(p.pattern.Attributes().size(), p.pattern.Size())
        << p.pattern.ToString();
  }
}

TEST(AprioriTest, SupportMonotonicity) {
  // Property: support of a conjunction never exceeds either conjunct's.
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.1;
  opt.max_length = 2;
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  const auto support = SupportByPattern(patterns);
  for (const auto& p : patterns) {
    if (p.pattern.Size() != 2) continue;
    for (const auto& pred : p.pattern.predicates()) {
      const Pattern single({pred});
      auto it = support.find(single.ToString());
      ASSERT_NE(it, support.end());
      EXPECT_LE(p.support, it->second);
    }
  }
}

TEST(AprioriTest, RowBitmapsMatchSupport) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.1;
  opt.max_length = 2;
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  for (const auto& p : patterns) {
    EXPECT_EQ(p.rows.Count(), p.support);
    // Bitmap must agree with row-at-a-time evaluation.
    for (size_t r = 0; r < t.NumRows(); ++r) {
      EXPECT_EQ(p.rows.Test(r), p.pattern.Matches(t, r))
          << p.pattern.ToString() << " row " << r;
    }
  }
}

TEST(AprioriTest, WideDomainAttributeSkipped) {
  const Table t = MakeTable();
  AprioriOptions opt;
  opt.min_support = 0.1;
  opt.max_values_per_attribute = 2;  // color has 3 values -> skipped
  const auto patterns = MineFrequentPatterns(t, {"color", "shape"}, opt);
  for (const auto& p : patterns) {
    EXPECT_FALSE(p.pattern.UsesAttribute("color")) << p.pattern.ToString();
  }
}

TEST(AprioriTest, EmptyAttributesYieldNothing) {
  const Table t = MakeTable();
  EXPECT_TRUE(MineFrequentPatterns(t, {}, {}).empty());
}

TEST(AprioriTest, IntegerAttributesSupported) {
  Table t;
  t.AddColumn("x", ColumnType::kInt64);
  for (int i = 0; i < 8; ++i) {
    t.AddRow({Value(int64_t{i % 2})});
  }
  AprioriOptions opt;
  opt.min_support = 0.4;
  const auto patterns = MineFrequentPatterns(t, {"x"}, opt);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].support, 4u);
}

// Parameterized sweep: mined pattern count shrinks monotonically with the
// support threshold (the Fig. 21 phenomenon at the miner level).
class AprioriThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(AprioriThresholdSweep, CountMonotoneInThreshold) {
  const Table t = MakeTable();
  AprioriOptions low, high;
  low.min_support = GetParam();
  high.min_support = GetParam() + 0.2;
  const auto many = MineFrequentPatterns(t, {"color", "shape"}, low);
  const auto few = MineFrequentPatterns(t, {"color", "shape"}, high);
  EXPECT_GE(many.size(), few.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AprioriThresholdSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.5));

// Every column kind the miner itemizes, with nulls in each: group key
// g; FD-determined categorical, int and double attributes (so grouping
// patterns cover groups); and a free double attribute.
Table MakeMixedTable() {
  Table t;
  t.AddColumn("g", ColumnType::kCategorical);
  t.AddColumn("region", ColumnType::kCategorical);
  t.AddColumn("tier", ColumnType::kInt64);
  t.AddColumn("score", ColumnType::kDouble);
  t.AddColumn("d", ColumnType::kDouble);
  t.AddColumn("y", ColumnType::kDouble);
  const char* groups[] = {"g0", "g1", "g2", "g3", "g4", "g5"};
  const char* regions[] = {"north", "south", "north", "east", "south"};
  const double ds[] = {0.5, 1.25, -2.0};
  for (int r = 0; r < 700; ++r) {
    const int g = (r * 7) % 6;
    t.AddRow({Value(groups[g]),
              g == 5 ? Value() : Value(regions[g]),
              g == 4 ? Value() : Value(int64_t{g % 3 - 1}),
              g == 3 ? Value() : Value((g % 2) * 1.5),
              r % 11 == 0 ? Value() : Value(ds[r % 3]),
              Value(static_cast<double>(r % 13))});
  }
  return t;
}

template <typename P>
void ExpectSamePatterns(const std::vector<P>& expected,
                        const std::vector<P>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].pattern.ToString(), actual[i].pattern.ToString());
    EXPECT_TRUE(expected[i].rows == actual[i].rows) << i;
    EXPECT_EQ(expected[i].support, actual[i].support) << i;
  }
}

// A null engine, a shared (sharded, pooled, warm on the second call)
// engine and a cache-bypass reference engine must mine identical
// patterns, rows and support.
TEST(AprioriTest, EveryEngineModeMinesTheSamePatterns) {
  const Table t = MakeMixedTable();
  EvalEngineOptions bypass_opt;
  bypass_opt.cache_enabled = false;
  EvalEngine bypass(BorrowTable(t), bypass_opt);
  EvalEngineOptions shared_opt;
  shared_opt.num_shards = 4;
  shared_opt.pool = std::make_shared<ThreadPool>(2);
  EvalEngine shared(BorrowTable(t), shared_opt);

  const std::vector<std::string> attrs = {"region", "tier", "score", "d"};
  AprioriOptions opt;
  opt.min_support = 0.05;
  const auto reference = MineFrequentPatterns(t, attrs, opt, &bypass);
  ASSERT_GT(reference.size(), 10u);
  size_t mixed = 0;
  for (const auto& fp : reference) {
    mixed += fp.pattern.UsesAttribute("tier") &&
                 fp.pattern.UsesAttribute("score") &&
                 fp.pattern.UsesAttribute("d");
  }
  EXPECT_GT(mixed, 0u);  // int and double items do conjoin
  ExpectSamePatterns(reference, MineFrequentPatterns(t, attrs, opt));
  ExpectSamePatterns(reference, MineFrequentPatterns(t, attrs, opt, &shared));
  ExpectSamePatterns(reference, MineFrequentPatterns(t, attrs, opt, &shared));

  GroupByAvgQuery q;
  q.group_by = {"g"};
  q.avg_attribute = "y";
  const AggregateView view = AggregateView::Evaluate(t, q);
  GroupingMinerOptions gopt;
  gopt.apriori = opt;
  const auto grouping =
      MineGroupingPatterns(t, view, {"region", "tier", "score"}, gopt,
                           &bypass);
  ASSERT_GT(grouping.size(), 6u);
  ExpectSamePatterns(grouping, MineGroupingPatterns(
                                   t, view, {"region", "tier", "score"}, gopt));
  ExpectSamePatterns(grouping,
                     MineGroupingPatterns(t, view, {"region", "tier", "score"},
                                          gopt, &shared));
}

}  // namespace
}  // namespace causumx
