// Unit tests for the dynamic bitset.

#include "util/bitset.h"

#include <gtest/gtest.h>

namespace causumx {
namespace {

TEST(BitsetTest, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
}

TEST(BitsetTest, SetClearTest) {
  Bitset b(130);  // crosses a word boundary
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, TestOutOfRangeIsFalse) {
  Bitset b(10);
  EXPECT_FALSE(b.Test(10));
  EXPECT_FALSE(b.Test(1000));
}

TEST(BitsetTest, UnionIntersection) {
  Bitset a(10), b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  const Bitset u = a | b;
  EXPECT_EQ(u.Count(), 3u);
  EXPECT_TRUE(u.Test(1) && u.Test(2) && u.Test(3));
  const Bitset i = a & b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(2));
}

TEST(BitsetTest, SubsetRelation) {
  Bitset a(10), b(10);
  a.Set(1);
  b.Set(1);
  b.Set(5);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(BitsetTest, ToIndicesAscending) {
  Bitset b(200);
  b.Set(5);
  b.Set(64);
  b.Set(199);
  const auto idx = b.ToIndices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 5u);
  EXPECT_EQ(idx[1], 64u);
  EXPECT_EQ(idx[2], 199u);
}

TEST(BitsetTest, EqualityAndHash) {
  Bitset a(50), b(50);
  a.Set(7);
  b.Set(7);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(8);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(BitsetTest, HashDistinguishesSizes) {
  Bitset a(10), b(20);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(BitsetTest, SetAllClearsPaddingBits) {
  Bitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  for (size_t i = 0; i < 70; ++i) EXPECT_TRUE(b.Test(i));
}

TEST(BitsetTest, SetAllExactWordMultiple) {
  Bitset b(128);
  b.SetAll();
  EXPECT_EQ(b.Count(), 128u);
}

TEST(BitsetTest, InPlaceOps) {
  Bitset a(10), b(10);
  a.Set(1);
  b.Set(2);
  a |= b;
  EXPECT_EQ(a.Count(), 2u);
  Bitset mask(10);
  mask.Set(2);
  a &= mask;
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(2));
}

TEST(BitsetTest, ResizeGrowPreservesBitsAndAppendsZeros) {
  Bitset b(10);
  b.Set(0);
  b.Set(9);
  b.Resize(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(9));
  EXPECT_FALSE(b.Test(10));
  EXPECT_FALSE(b.Test(199));
  // The zero-extension must be canonical: equal to a bitset built at the
  // larger size directly (word-wise equality and Hash agree).
  Bitset direct(200);
  direct.Set(0);
  direct.Set(9);
  EXPECT_TRUE(b == direct);
  EXPECT_EQ(b.Hash(), direct.Hash());
}

TEST(BitsetTest, ResizeShrinkDropsAndClearsPadding) {
  Bitset b(100);
  b.SetAll();
  b.Resize(70);
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.Count(), 70u);
  Bitset direct(70);
  direct.SetAll();
  EXPECT_TRUE(b == direct);
  EXPECT_EQ(b.Hash(), direct.Hash());
}

TEST(BitsetDedupTest, ExactComparisonOnForgedCollision) {
  Bitset a(64), b(64);
  a.Set(1);
  b.Set(2);
  BitsetDedup seen;
  const uint64_t collided = 42;  // simulate a 64-bit Hash() collision
  EXPECT_TRUE(seen.Insert(collided, a));
  EXPECT_TRUE(seen.Insert(collided, b));   // distinct content survives
  EXPECT_FALSE(seen.Insert(collided, a));  // true duplicate rejected
  EXPECT_TRUE(seen.Insert(43, a));         // distinct hashes never interfere
}

TEST(BitsetDedupTest, ContainsUsesContentHash) {
  Bitset a(64), b(64);
  a.Set(1);
  b.Set(2);
  BitsetDedup seen;
  EXPECT_FALSE(seen.Contains(a));
  EXPECT_TRUE(seen.Insert(a));
  EXPECT_TRUE(seen.Contains(a));
  EXPECT_FALSE(seen.Contains(b));
  EXPECT_FALSE(seen.Insert(a));
  EXPECT_TRUE(seen.Insert(b));
  EXPECT_TRUE(seen.Contains(b));
}

}  // namespace
}  // namespace causumx
