// Unit tests for the group-by-average query engine (Section 4).

#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>

#include "dataset/group_query.h"
#include "util/rng.h"

namespace causumx {
namespace {

Table MakeTable() {
  Table t;
  t.AddColumn("country", ColumnType::kCategorical);
  t.AddColumn("role", ColumnType::kCategorical);
  t.AddColumn("salary", ColumnType::kDouble);
  t.AddRow({Value("US"), Value("dev"), Value(100.0)});
  t.AddRow({Value("US"), Value("qa"), Value(80.0)});
  t.AddRow({Value("IN"), Value("dev"), Value(30.0)});
  t.AddRow({Value("IN"), Value("dev"), Value(50.0)});
  t.AddRow({Value("DE"), Value("dev"), Value()});      // null outcome
  t.AddRow({Value(), Value("dev"), Value(70.0)});      // null key
  return t;
}

GroupByAvgQuery MakeQuery() {
  GroupByAvgQuery q;
  q.group_by = {"country"};
  q.avg_attribute = "salary";
  return q;
}

TEST(GroupQueryTest, AveragesAndCounts) {
  const Table t = MakeTable();
  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  ASSERT_EQ(view.NumGroups(), 2u);  // DE dropped (null outcome only)
  EXPECT_EQ(view.group(0).KeyString(), "US");
  EXPECT_DOUBLE_EQ(view.group(0).average, 90.0);
  EXPECT_EQ(view.group(0).count, 2u);
  EXPECT_EQ(view.group(1).KeyString(), "IN");
  EXPECT_DOUBLE_EQ(view.group(1).average, 40.0);
}

TEST(GroupQueryTest, NullKeyRowsExcluded) {
  const Table t = MakeTable();
  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  EXPECT_EQ(view.GroupOfRow(5), -1);
}

TEST(GroupQueryTest, NullOutcomeRowsExcluded) {
  const Table t = MakeTable();
  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  EXPECT_EQ(view.GroupOfRow(4), -1);
}

TEST(GroupQueryTest, RowGroupMapping) {
  const Table t = MakeTable();
  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  EXPECT_EQ(view.GroupOfRow(0), 0);
  EXPECT_EQ(view.GroupOfRow(1), 0);
  EXPECT_EQ(view.GroupOfRow(2), 1);
  EXPECT_EQ(view.GroupOfRow(3), 1);
  const auto active = view.ActiveRows();
  EXPECT_EQ(active.size(), 4u);
}

TEST(GroupQueryTest, WherePushdown) {
  const Table t = MakeTable();
  GroupByAvgQuery q = MakeQuery();
  q.where = Pattern({SimplePredicate("role", CompareOp::kEq, Value("dev"))});
  const AggregateView view = AggregateView::Evaluate(t, q);
  ASSERT_EQ(view.NumGroups(), 2u);
  EXPECT_DOUBLE_EQ(view.group(0).average, 100.0);  // US: only the dev row
  EXPECT_EQ(view.group(0).count, 1u);
}

TEST(GroupQueryTest, CompositeGroupBy) {
  const Table t = MakeTable();
  GroupByAvgQuery q;
  q.group_by = {"country", "role"};
  q.avg_attribute = "salary";
  const AggregateView view = AggregateView::Evaluate(t, q);
  ASSERT_EQ(view.NumGroups(), 3u);  // US|dev, US|qa, IN|dev
  EXPECT_EQ(view.group(0).KeyString(), "US|dev");
  EXPECT_EQ(view.group(2).KeyString(), "IN|dev");
  EXPECT_DOUBLE_EQ(view.group(2).average, 40.0);
}

TEST(GroupQueryTest, ToSqlRendering) {
  GroupByAvgQuery q = MakeQuery();
  EXPECT_EQ(q.ToSql("T"),
            "SELECT country, AVG(salary) FROM T GROUP BY country");
  q.where = Pattern({SimplePredicate("role", CompareOp::kEq, Value("dev"))});
  EXPECT_EQ(q.ToSql(),
            "SELECT country, AVG(salary) FROM D WHERE role = dev "
            "GROUP BY country");
}

TEST(GroupQueryTest, EmptyTableYieldsNoGroups) {
  Table t;
  t.AddColumn("country", ColumnType::kCategorical);
  t.AddColumn("salary", ColumnType::kDouble);
  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  EXPECT_EQ(view.NumGroups(), 0u);
}

TEST(GroupQueryTest, CompensatedAverageSurvivesLargeOffsets) {
  // Regression for the naive += accumulation: 100k salaries near 1e8 in
  // one group. The exact average is 1e8 + mean(0.1 * (i % 7)); naive
  // summation drifts by many ulps once the partial sum passes 1e13,
  // while the compensated path stays within ~1 ulp of the average.
  Table t;
  t.AddColumn("country", ColumnType::kCategorical);
  t.AddColumn("salary", ColumnType::kDouble);
  const size_t n = 100000;  // multiple of 7 not required; compute exactly
  long double exact = 0.0L;
  for (size_t i = 0; i < n; ++i) {
    const double v = 1e8 + 0.1 * static_cast<double>(i % 7);
    // causumx-lint: allow(fp-accumulation) long-double oracle for the sum
    exact += static_cast<long double>(v);
    t.AddRow({Value("US"), Value(v)});
  }
  const double expected = static_cast<double>(exact / n);

  const AggregateView view = AggregateView::Evaluate(t, MakeQuery());
  ASSERT_EQ(view.NumGroups(), 1u);
  EXPECT_NEAR(view.group(0).average, expected, 1e-7);
}

// The dictionary-code fast path must agree bit-for-bit with the
// string-keyed reference path — group order, keys, counts, member rows,
// row mapping, and (since both use compensated summation) the averages.
void ExpectViewsIdentical(const AggregateView& fast,
                          const AggregateView& ref) {
  ASSERT_EQ(fast.NumGroups(), ref.NumGroups());
  for (size_t g = 0; g < fast.NumGroups(); ++g) {
    EXPECT_EQ(fast.group(g).KeyString(), ref.group(g).KeyString()) << g;
    EXPECT_EQ(fast.group(g).count, ref.group(g).count) << g;
    EXPECT_TRUE(std::ranges::equal(fast.group(g).rows, ref.group(g).rows))
        << g;
    // Bit-identical, not just close.
    EXPECT_EQ(fast.group(g).average, ref.group(g).average) << g;
  }
  for (size_t r = 0; r < fast.ActiveRows().size(); ++r) {
    EXPECT_EQ(fast.ActiveRows()[r], ref.ActiveRows()[r]);
  }
}

TEST(GroupQueryTest, FastPathMatchesReferenceOnFixtures) {
  const Table t = MakeTable();
  for (const auto& group_by :
       {std::vector<std::string>{"country"},
        std::vector<std::string>{"country", "role"}}) {
    GroupByAvgQuery q;
    q.group_by = group_by;
    q.avg_attribute = "salary";
    ExpectViewsIdentical(AggregateView::Evaluate(t, q),
                         AggregateView::EvaluateReference(t, q));
    q.where =
        Pattern({SimplePredicate("role", CompareOp::kEq, Value("dev"))});
    ExpectViewsIdentical(AggregateView::Evaluate(t, q),
                         AggregateView::EvaluateReference(t, q));
  }
}

TEST(GroupQueryTest, FastPathMatchesReferenceOnRandomTables) {
  // Property sweep over random tables: categorical and integer composite
  // keys (the exact-key types), ~5% nulls everywhere, outcome with
  // large-offset values so the summation paths are exercised too.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Table t;
    t.AddColumn("c", ColumnType::kCategorical);
    t.AddColumn("i", ColumnType::kInt64);
    t.AddColumn("y", ColumnType::kDouble);
    const char* cats[] = {"a", "b", "c", "d"};
    const size_t n = 500 + rng.NextBounded(500);
    for (size_t r = 0; r < n; ++r) {
      t.AddRow({rng.NextBool(0.05) ? Value() : Value(cats[rng.NextBounded(4)]),
                rng.NextBool(0.05) ? Value() : Value(rng.NextInt(-3, 3)),
                rng.NextBool(0.05) ? Value()
                                   : Value(1e8 + rng.NextGaussian())});
    }
    for (const auto& group_by :
         {std::vector<std::string>{"c"}, std::vector<std::string>{"i"},
          std::vector<std::string>{"c", "i"}}) {
      GroupByAvgQuery q;
      q.group_by = group_by;
      q.avg_attribute = "y";
      ExpectViewsIdentical(AggregateView::Evaluate(t, q),
                           AggregateView::EvaluateReference(t, q));
    }
  }
}

}  // namespace
}  // namespace causumx
