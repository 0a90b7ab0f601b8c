// Differential tests for the vectorized kernel layer: every dispatch
// tier against naive references, the predicate evaluator against the
// row-at-a-time Matches path (including its degenerate cases), and the
// compressed bitset representations against plain storage. The central
// claim under test is the bit-identity contract — tier and
// representation are pure throughput/memory decisions.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dataset/pattern.h"
#include "dataset/table.h"
#include "util/cpu_features.h"
#include "util/kernels.h"
#include "util/rng.h"
#include "util/stats.h"

namespace causumx {
namespace {

// Sizes that exercise empty input, sub-word, exact-word, word+1, and
// multi-word-with-tail shapes.
const size_t kSizes[] = {0, 1, 7, 63, 64, 65, 127, 128, 200, 1000, 4113};

std::vector<KernelTier> SupportedTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier t : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// RAII tier override so a failing assertion cannot leak a tier into
// later tests.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier t) : prev_(ActiveKernelTier()) {
    EXPECT_TRUE(SetKernelTier(t));
  }
  ~ScopedTier() { SetKernelTier(prev_); }

 private:
  KernelTier prev_;
};

std::vector<uint64_t> NaiveWords(size_t n, auto bit_of) {
  std::vector<uint64_t> words((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    if (bit_of(i)) words[i / 64] |= uint64_t{1} << (i % 64);
  }
  return words;
}

TEST(CpuFeaturesTest, ScalarAlwaysSupportedAndSettable) {
  EXPECT_TRUE(KernelTierSupported(KernelTier::kScalar));
  const KernelTier initial = ActiveKernelTier();
  EXPECT_TRUE(SetKernelTier(KernelTier::kScalar));
  EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  if (KernelTierSupported(KernelTier::kAvx2)) {
    EXPECT_TRUE(SetKernelTier(KernelTier::kAvx2));
    EXPECT_EQ(ActiveKernelTier(), KernelTier::kAvx2);
  } else {
    EXPECT_FALSE(SetKernelTier(KernelTier::kAvx2));
    EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  }
  SetKernelTier(initial);
}

TEST(KernelsTest, CompareI32EqMatchesNaiveOnEveryTier) {
  Rng rng(1);
  for (size_t n : kSizes) {
    std::vector<int32_t> values(n);
    for (auto& v : values) {
      v = static_cast<int32_t>(rng.NextBounded(6)) - 1;  // includes -1 null
    }
    const int32_t target = 2;
    const auto expect =
        NaiveWords(n, [&](size_t i) { return values[i] == target; });
    for (KernelTier t : SupportedTiers()) {
      ScopedTier tier(t);
      std::vector<uint64_t> got((n + 63) / 64, ~uint64_t{0});
      kernels::CompareI32Eq(values.data(), n, target, got.data());
      EXPECT_EQ(got, expect) << "n=" << n << " tier=" << KernelTierName(t);
    }
  }
}

TEST(KernelsTest, CompareF64MatchesIeeeNaiveOnEveryTier) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(2);
  for (size_t n : kSizes) {
    std::vector<double> values(n);
    for (auto& v : values) {
      const uint64_t pick = rng.NextBounded(8);
      v = pick == 0 ? kNan : (static_cast<double>(rng.NextInt(-4, 4)) / 2.0);
    }
    const double rhs = 0.5;
    for (kernels::CmpOp op :
         {kernels::CmpOp::kEq, kernels::CmpOp::kLt, kernels::CmpOp::kGt,
          kernels::CmpOp::kLe, kernels::CmpOp::kGe}) {
      const auto expect = NaiveWords(n, [&](size_t i) {
        switch (op) {
          case kernels::CmpOp::kEq: return values[i] == rhs;
          case kernels::CmpOp::kLt: return values[i] < rhs;
          case kernels::CmpOp::kGt: return values[i] > rhs;
          case kernels::CmpOp::kLe: return values[i] <= rhs;
          case kernels::CmpOp::kGe: return values[i] >= rhs;
        }
        return false;
      });
      for (KernelTier t : SupportedTiers()) {
        ScopedTier tier(t);
        std::vector<uint64_t> got((n + 63) / 64, ~uint64_t{0});
        kernels::CompareF64(values.data(), n, op, rhs, got.data());
        EXPECT_EQ(got, expect) << "n=" << n << " op=" << static_cast<int>(op)
                               << " tier=" << KernelTierName(t);
      }
    }
  }
}

TEST(KernelsTest, CompareI64AsF64SkipsNullSentinel) {
  Rng rng(3);
  const size_t n = 300;
  std::vector<int64_t> values(n);
  for (auto& v : values) {
    v = rng.NextBounded(10) == 0 ? Column::kNullInt : rng.NextInt(-5, 5);
  }
  const auto expect = NaiveWords(n, [&](size_t i) {
    return values[i] != Column::kNullInt &&
           static_cast<double>(values[i]) <= 1.0;
  });
  std::vector<uint64_t> got((n + 63) / 64, ~uint64_t{0});
  kernels::CompareI64AsF64(values.data(), n, kernels::CmpOp::kLe, 1.0,
                           Column::kNullInt, got.data());
  EXPECT_EQ(got, expect);
}

TEST(KernelsTest, CompareI32LutMatchesNaive) {
  Rng rng(4);
  const size_t n = 257;
  const uint8_t lut[5] = {1, 0, 1, 1, 0};
  std::vector<int32_t> values(n);
  for (auto& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(6)) - 1;  // -1..4
  }
  const auto expect = NaiveWords(
      n, [&](size_t i) { return values[i] >= 0 && lut[values[i]] != 0; });
  std::vector<uint64_t> got((n + 63) / 64, ~uint64_t{0});
  kernels::CompareI32Lut(values.data(), n, lut, got.data());
  EXPECT_EQ(got, expect);
}

TEST(KernelsTest, WordOpsMatchNaiveOnEveryTier) {
  Rng rng(5);
  for (size_t nw : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                    size_t{31}, size_t{64}, size_t{129}}) {
    std::vector<uint64_t> a(nw), b(nw);
    for (size_t i = 0; i < nw; ++i) {
      a[i] = rng.NextU64();
      b[i] = rng.NextU64();
    }
    size_t pc = 0, anp = 0;
    std::vector<uint64_t> and_ref(a), or_ref(a);
    for (size_t i = 0; i < nw; ++i) {
      pc += std::popcount(a[i]);
      anp += std::popcount(a[i] & ~b[i]);
      and_ref[i] &= b[i];
      or_ref[i] |= b[i];
    }
    for (KernelTier t : SupportedTiers()) {
      ScopedTier tier(t);
      EXPECT_EQ(kernels::PopcountWords(a.data(), nw), pc);
      EXPECT_EQ(kernels::AndNotPopcount(a.data(), b.data(), nw), anp);
      std::vector<uint64_t> and_got(a), or_got(a);
      kernels::AndWords(and_got.data(), b.data(), nw);
      kernels::OrWords(or_got.data(), b.data(), nw);
      EXPECT_EQ(and_got, and_ref) << "nw=" << nw;
      EXPECT_EQ(or_got, or_ref) << "nw=" << nw;
    }
  }
}

TEST(KernelsTest, BlockedKahanSumBitIdenticalToStreamingOnEveryTier) {
  Rng rng(6);
  for (size_t n : kSizes) {
    std::vector<double> x(n);
    for (auto& v : x) {
      // Large offsets + small deltas make naive summation drift, so a
      // tier that deviated from the blocked-Kahan operation sequence
      // would produce a different bit pattern here.
      v = 1e8 + rng.NextGaussian();
    }
    BlockedKahan stream;
    for (size_t i = 0; i < n; ++i) stream.Add(i, x[i]);
    const uint64_t expect_bits = std::bit_cast<uint64_t>(stream.Sum());
    for (KernelTier t : SupportedTiers()) {
      ScopedTier tier(t);
      const double got = kernels::BlockedKahanSum(x.data(), n);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), expect_bits)
          << "n=" << n << " tier=" << KernelTierName(t);
      EXPECT_EQ(std::bit_cast<uint64_t>(BlockedKahanSum(x.data(), n)),
                expect_bits);
    }
  }
}

// ---- predicate evaluator vs the row-at-a-time reference --------------------

Table MixedTable(size_t rows) {
  Table t;
  t.AddColumn("cat", ColumnType::kCategorical);
  t.AddColumn("num", ColumnType::kInt64);
  t.AddColumn("score", ColumnType::kDouble);
  Rng rng(7);
  const char* cats[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBounded(11) == 0) {
      t.column(0).AppendNull();
    } else {
      t.column(0).AppendCategorical(cats[rng.NextBounded(4)]);
    }
    if (rng.NextBounded(9) == 0) {
      t.column(1).AppendNull();
    } else {
      t.column(1).AppendInt(rng.NextInt(-20, 20));
    }
    if (rng.NextBounded(9) == 0) {
      t.column(2).AppendNull();  // NaN sentinel
    } else {
      t.column(2).AppendDouble(static_cast<double>(rng.NextInt(-8, 8)) / 4.0);
    }
  }
  return t;
}

void ExpectEvaluatorMatchesReference(const Table& t,
                                     const SimplePredicate& pred) {
  const size_t rows = t.NumRows();
  // Word-aligned and unaligned sub-ranges plus the full range.
  const std::pair<size_t, size_t> ranges[] = {
      {0, rows}, {0, rows / 2}, {64, rows}, {37, rows - 21}, {100, 100}};
  for (const auto& [begin, end] : ranges) {
    if (begin > end || end > rows) continue;
    for (KernelTier tier : SupportedTiers()) {
      ScopedTier scoped(tier);
      const Bitset got = EvaluatePredicateRange(t, pred, begin, end);
      ASSERT_EQ(got.size(), end - begin);
      for (size_t r = begin; r < end; ++r) {
        ASSERT_EQ(got.Test(r - begin), pred.Matches(t, r))
            << pred.ToString() << " row " << r << " range [" << begin << ","
            << end << ") tier " << KernelTierName(tier);
      }
    }
  }
}

TEST(EvaluatePredicateRangeTest, AgreesWithMatchesOnEveryColumnTypeAndOp) {
  const Table t = MixedTable(1000);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGt,
                       CompareOp::kLe, CompareOp::kGe}) {
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("cat", op, Value("beta")));
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("num", op, Value(int64_t{3})));
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("score", op, Value(0.5)));
    // Cross-type constants: int rhs on a double column and vice versa.
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("score", op, Value(int64_t{1})));
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("num", op, Value(2.5)));
  }
}

TEST(EvaluatePredicateRangeTest, DegenerateCasesAgreeWithMatches) {
  const Table t = MixedTable(500);
  // A dictionary miss (no row ever matches kEq; ordered ops still compare
  // lexicographically against every dictionary entry).
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}) {
    ExpectEvaluatorMatchesReference(
        t, SimplePredicate("cat", op, Value("zeta")));
  }
  // NaN rhs on numeric columns: Matches' three-way comparison collapses
  // to cmp==0, so kEq/kLe/kGe match every non-null row — the evaluator
  // must reproduce that, not IEEE all-false.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGt,
                       CompareOp::kLe, CompareOp::kGe}) {
    ExpectEvaluatorMatchesReference(t,
                                    SimplePredicate("score", op, Value(kNan)));
    ExpectEvaluatorMatchesReference(t,
                                    SimplePredicate("num", op, Value(kNan)));
  }
  // String rhs on numeric columns (non-numeric constant fallback).
  ExpectEvaluatorMatchesReference(
      t, SimplePredicate("num", CompareOp::kEq, Value("x")));
}

TEST(EvaluatePredicateRangeTest, PatternConjunctionAgreesAcrossTiers) {
  const Table t = MixedTable(777);
  const Pattern p({SimplePredicate("cat", CompareOp::kEq, Value("alpha")),
                   SimplePredicate("num", CompareOp::kLt, Value(int64_t{5})),
                   SimplePredicate("score", CompareOp::kGe, Value(-0.5))});
  Bitset first;
  bool have_first = false;
  for (KernelTier tier : SupportedTiers()) {
    ScopedTier scoped(tier);
    const Bitset got = p.Evaluate(t);
    for (size_t r = 0; r < t.NumRows(); ++r) {
      ASSERT_EQ(got.Test(r), p.Matches(t, r)) << "row " << r;
    }
    if (!have_first) {
      first = got;
      have_first = true;
    } else {
      EXPECT_TRUE(got == first);
    }
  }
}

// ---- bitset count kernels --------------------------------------------------

TEST(BitsetTest, CountAndNotRangeMatchesNaive) {
  Rng rng(8);
  const size_t n = 1000;
  Bitset a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBounded(3) == 0) a.Set(i);
    if (rng.NextBounded(3) == 0) b.Set(i);
  }
  const std::pair<size_t, size_t> ranges[] = {
      {0, n}, {0, 64}, {64, 128}, {5, 999}, {70, 70}, {500, 2000}};
  for (const auto& [begin, end] : ranges) {
    size_t expect = 0;
    for (size_t i = begin; i < std::min(end, n); ++i) {
      if (a.Test(i) && !b.Test(i)) ++expect;
    }
    EXPECT_EQ(a.CountAndNotRange(b, begin, end), expect)
        << "[" << begin << "," << end << ")";
  }
  EXPECT_EQ(a.CountAndNot(b), a.CountAndNotRange(b, 0, n));
}

TEST(BitsetTest, CountAndNotRangeZeroExtendsShorterOther) {
  // `a` grew (appends) while `covered` kept the original universe: tail
  // bits of `a` have no counterpart in `covered` and must all count.
  Bitset a(200), covered(100);
  for (size_t i = 0; i < 200; i += 2) a.Set(i);
  for (size_t i = 0; i < 100; i += 4) covered.Set(i);
  size_t expect_full = 0, expect_head = 0;
  for (size_t i = 0; i < 200; ++i) {
    const bool cov = i < 100 && covered.Test(i);
    if (a.Test(i) && !cov) {
      ++expect_full;
      if (i < 100) ++expect_head;
    }
  }
  EXPECT_EQ(a.CountAndNotRange(covered, 0, 200), expect_full);
  EXPECT_EQ(a.CountAndNotRange(covered, 0, 100), expect_head);
}

}  // namespace
}  // namespace causumx
