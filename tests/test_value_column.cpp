// Unit tests for Value and Column (dictionary encoding, null handling).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "dataset/column.h"
#include "dataset/value.h"

namespace causumx {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(int64_t{3}).Equals(Value(3.0)));
  EXPECT_FALSE(Value(int64_t{3}).Equals(Value(3.5)));
  EXPECT_FALSE(Value("3").Equals(Value(int64_t{3})));
  EXPECT_FALSE(Value().Equals(Value()));  // nulls never equal
}

TEST(ValueTest, CompareOrdersNumericAndString) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_GT(Value(5.5).Compare(Value(int64_t{5})), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "<null>");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "x");
}

TEST(ColumnTest, IntColumnBasics) {
  Column c("a", ColumnType::kInt64);
  c.AppendInt(1);
  c.AppendInt(2);
  c.AppendNull();
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetInt(0), 1);
  EXPECT_FALSE(c.IsNull(1));
  EXPECT_TRUE(c.IsNull(2));
  EXPECT_EQ(c.NumDistinct(), 2u);
}

TEST(ColumnTest, DictionaryEncodingReusesCodes) {
  Column c("cat", ColumnType::kCategorical);
  c.AppendCategorical("red");
  c.AppendCategorical("blue");
  c.AppendCategorical("red");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetCode(0), c.GetCode(2));
  EXPECT_NE(c.GetCode(0), c.GetCode(1));
  EXPECT_EQ(c.dictionary().size(), 2u);
  EXPECT_EQ(c.CodeOf("red"), c.GetCode(0));
  EXPECT_EQ(c.CodeOf("missing"), Column::kNullCode);
}

TEST(ColumnTest, TypeMismatchThrows) {
  Column c("a", ColumnType::kInt64);
  EXPECT_THROW(c.AppendDouble(1.0), std::logic_error);
  EXPECT_THROW(c.AppendCategorical("x"), std::logic_error);
}

TEST(ColumnTest, GetNumericViews) {
  Column ci("i", ColumnType::kInt64);
  ci.AppendInt(7);
  EXPECT_DOUBLE_EQ(ci.GetNumeric(0), 7.0);

  Column cd("d", ColumnType::kDouble);
  cd.AppendDouble(1.25);
  EXPECT_DOUBLE_EQ(cd.GetNumeric(0), 1.25);

  Column cc("c", ColumnType::kCategorical);
  cc.AppendCategorical("a");
  cc.AppendCategorical("b");
  EXPECT_DOUBLE_EQ(cc.GetNumeric(1), 1.0);  // dictionary code

  cc.AppendNull();
  EXPECT_TRUE(std::isnan(cc.GetNumeric(2)));
}

TEST(ColumnTest, DistinctValuesSortedAndNullFree) {
  Column c("d", ColumnType::kDouble);
  c.AppendDouble(3.0);
  c.AppendDouble(1.0);
  c.AppendNull();
  c.AppendDouble(3.0);
  const auto vals = c.DistinctValues();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_DOUBLE_EQ(vals[0].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(vals[1].AsDouble(), 3.0);
  EXPECT_EQ(c.NumDistinct(), 2u);
}

TEST(ColumnTest, AppendValueDispatch) {
  Column c("c", ColumnType::kCategorical);
  c.AppendValue(Value("x"));
  c.AppendValue(Value(int64_t{5}));  // coerced to string
  c.AppendValue(Value());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetValue(1).AsString(), "5");
  EXPECT_TRUE(c.IsNull(2));
}

TEST(ColumnTest, GetValueDecodesDictionary) {
  Column c("c", ColumnType::kCategorical);
  c.AppendCategorical("hello");
  const Value v = c.GetValue(0);
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
}

// DistinctValues against the std::set it replaces, over small domains,
// a domain past the small-domain path, wide and narrow integer ranges,
// and the two zeros (the first in row order represents the class).
TEST(ColumnTest, DistinctValuesMatchAnOrderedSet) {
  for (size_t domain : {3, 64, 65, 500}) {
    Column d("d", ColumnType::kDouble);
    Column i("i", ColumnType::kInt64);
    Column w("w", ColumnType::kInt64);
    std::set<double> want_d;
    std::set<int64_t> want_i;
    std::set<int64_t> want_w;
    for (size_t r = 0; r < 3000; ++r) {
      const size_t k = (r * 7919) % domain;
      if (r % 11 == 0) {
        d.AppendNull();
        i.AppendNull();
        w.AppendNull();
        continue;
      }
      const double dv = k == 0 ? (r % 2 == 0 ? -0.0 : 0.0)
                               : static_cast<double>(k) / 3.0;
      d.AppendDouble(dv);
      want_d.insert(dv);
      const int64_t iv = static_cast<int64_t>(k) - 7;
      i.AppendInt(iv);
      want_i.insert(iv);
      const int64_t wv = (static_cast<int64_t>(k) - 3) * (int64_t{1} << 40);
      w.AppendInt(wv);
      want_w.insert(wv);
    }
    const std::vector<Value> got_d = d.DistinctValues();
    ASSERT_EQ(got_d.size(), want_d.size()) << domain;
    ASSERT_EQ(d.NumDistinct(), want_d.size()) << domain;
    size_t at = 0;
    for (double v : want_d) {
      EXPECT_EQ(std::signbit(got_d[at].AsDouble()), std::signbit(v));
      EXPECT_EQ(got_d[at++].AsDouble(), v);
    }
    for (const auto& [col, want] :
         {std::pair<const Column*, const std::set<int64_t>*>{&i, &want_i},
          {&w, &want_w}}) {
      const std::vector<Value> got = col->DistinctValues();
      ASSERT_EQ(got.size(), want->size()) << domain;
      EXPECT_EQ(col->NumDistinct(), want->size()) << domain;
      at = 0;
      for (int64_t v : *want) EXPECT_EQ(got[at++].AsInt(), v);
    }
  }
}

TEST(ColumnTest, NumDistinctInvalidatedOnAppend) {
  Column c("i", ColumnType::kInt64);
  c.AppendInt(1);
  EXPECT_EQ(c.NumDistinct(), 1u);
  c.AppendInt(2);
  EXPECT_EQ(c.NumDistinct(), 2u);
}

}  // namespace
}  // namespace causumx
