// kernels — the vectorized kernel layer versus replicas of the
// pre-kernel scalar loops.
//
// Two measurements:
//
//   dict-eq     single categorical equality predicate over N rows:
//               EvaluatePredicateRange (word-wise CompareI32Eq through
//               the active dispatch tier) vs the old per-row
//               SetAll + Test/GetCode/Clear loop.
//   and+popcnt  fused a & ~b popcount over the bitset word arrays:
//               kernels::AndNotPopcount vs the old per-word
//               std::popcount loop.
//
// Gate: kernel outputs bit-identical to the baselines on every
// available tier; with the AVX2 tier active, dict-eq >= 3x rows/sec and
// and+popcnt >= 2x words/sec against the scalar-loop baselines. On a
// scalar-only build (CAUSUMX_DISABLE_AVX2, or pre-AVX2 hardware) the
// dict-eq bar drops to 1.2x — hoisting the per-row dispatch already
// pays — and the and+popcnt bar is waived (the scalar kernel IS the
// baseline loop). Best-of-rounds rates, per core: every timed loop here
// is single-threaded.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "dataset/pattern.h"
#include "dataset/table.h"
#include "util/cpu_features.h"
#include "util/kernels.h"
#include "util/rng.h"
#include "util/timer.h"

namespace causumx::bench {

namespace {

// Replica of the pre-kernel Pattern::EvaluateRange inner loop for a
// categorical equality predicate (per-row bitset Test/Clear against the
// resolved dictionary code). Kept deliberately identical to the old
// code so the speedup measures the kernel layer, not workload drift.
Bitset BaselineDictEq(const Column& col, int32_t code, size_t n) {
  Bitset out(n);
  out.SetAll();
  for (size_t r = 0; r < n; ++r) {
    if (out.Test(r) && col.GetCode(r) != code) out.Clear(r);
  }
  return out;
}

// Replica of the pre-kernel Bitset::CountAndNot word loop.
size_t BaselineAndNotPopcount(const uint64_t* a, const uint64_t* b,
                              size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) c += std::popcount(a[i] & ~b[i]);
  return c;
}

// Best-of-rounds throughput: repeats fn until each round is long enough
// to time reliably, returns items/second of the fastest round.
template <typename Fn>
double BestRate(size_t items, int rounds, Fn fn) {
  double best = 0.0;
  int reps = 1;
  for (int round = 0; round < rounds; ++round) {
    for (;;) {
      Timer t;
      for (int i = 0; i < reps; ++i) fn();
      const double s = t.Seconds();
      if (s >= 0.02 || reps > (1 << 22)) {
        const double rate = static_cast<double>(items) * reps / s;
        if (rate > best) best = rate;
        break;
      }
      reps *= 4;
    }
  }
  return best;
}

}  // namespace

void Kernels(Section& s) {
  s.Banner("kernels", "vectorized kernels vs the pre-kernel scalar loops");

  const size_t rows = std::max<size_t>(
      1'000'000, static_cast<size_t>(8'000'000 * s.scale()));
  const size_t words = std::max<size_t>(
      size_t{1} << 17, static_cast<size_t>((size_t{1} << 20) * s.scale()));
  constexpr int kRounds = 5;

  // Dataset: one 12-bucket categorical column (the shape of a grouping
  // attribute) and the predicate C = b03.
  Table table;
  table.AddColumn("C", ColumnType::kCategorical);
  {
    Rng rng(42);
    char buf[8];
    for (size_t r = 0; r < rows; ++r) {
      std::snprintf(buf, sizeof(buf), "b%02d",
                    static_cast<int>(rng.NextU64() % 12));
      table.column(0).AppendCategorical(buf);
    }
  }
  const Column& col = table.column("C");
  const SimplePredicate pred("C", CompareOp::kEq, Value(std::string("b03")));
  const int32_t code = col.CodeOf("b03");

  // Word arrays for the fused AND-NOT popcount.
  std::vector<uint64_t> wa(words), wb(words);
  {
    Rng rng(7);
    for (size_t i = 0; i < words; ++i) {
      wa[i] = rng.NextU64();
      wb[i] = rng.NextU64();
    }
  }

  const Bitset ref_bits = BaselineDictEq(col, code, rows);
  const size_t ref_count = BaselineAndNotPopcount(wa.data(), wb.data(), words);

  std::printf("rows %zu, words %zu; detected tier: %s\n\n", rows, words,
              KernelTierName(ActiveKernelTier()));

  const double base_eq_rate = BestRate(rows, kRounds, [&] {
    volatile size_t sink = BaselineDictEq(col, code, rows).Count();
    (void)sink;
  });
  const double base_pc_rate = BestRate(words, kRounds, [&] {
    volatile size_t sink = BaselineAndNotPopcount(wa.data(), wb.data(), words);
    (void)sink;
  });
  std::printf("%-22s dict-eq %8.1f Mrows/s   and+popcnt %8.1f Mwords/s\n",
              "baseline (pre-kernel)", base_eq_rate / 1e6, base_pc_rate / 1e6);

  const KernelTier initial_tier = ActiveKernelTier();
  double best_eq = 0.0, best_pc = 0.0;
  for (KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!KernelTierSupported(tier)) continue;
    SetKernelTier(tier);
    // Bit-identity against the baseline replicas before timing.
    if (!(EvaluatePredicateRange(table, pred, 0, rows) == ref_bits)) {
      s.Fail(Fmt("%s dict-eq bits differ from baseline", KernelTierName(tier)));
    }
    if (kernels::AndNotPopcount(wa.data(), wb.data(), words) != ref_count) {
      s.Fail(Fmt("%s and+popcnt differs from baseline", KernelTierName(tier)));
    }
    const double eq_rate = BestRate(rows, kRounds, [&] {
      volatile size_t sink =
          EvaluatePredicateRange(table, pred, 0, rows).Count();
      (void)sink;
    });
    const double pc_rate = BestRate(words, kRounds, [&] {
      volatile size_t sink =
          kernels::AndNotPopcount(wa.data(), wb.data(), words);
      (void)sink;
    });
    best_eq = std::max(best_eq, eq_rate);
    best_pc = std::max(best_pc, pc_rate);
    std::printf("%-22s dict-eq %8.1f Mrows/s (%4.2fx)   and+popcnt %8.1f "
                "Mwords/s (%4.2fx)\n",
                KernelTierName(tier), eq_rate / 1e6, eq_rate / base_eq_rate,
                pc_rate / 1e6, pc_rate / base_pc_rate);
  }
  SetKernelTier(initial_tier);

  // Bars scaled to the best available tier, like the shards gate scales
  // to the core count: the 3x/2x headline numbers assume the AVX2 tier
  // exists to run.
  const bool have_avx2 = KernelTierSupported(KernelTier::kAvx2);
  const std::string statistic =
      Fmt("best-of-%d rate over the baseline's", kRounds);
  s.ExpectSpeedup("dict-eq speedup", best_eq / base_eq_rate,
                  have_avx2 ? 3.0 : 1.2, statistic);
  if (have_avx2) {
    s.ExpectSpeedup("and+popcnt speedup", best_pc / base_pc_rate, 2.0,
                    statistic);
  } else {
    std::printf("and+popcnt speedup: %.2fx (bar waived on a scalar-only "
                "build)\n", best_pc / base_pc_rate);
  }
}

}  // namespace causumx::bench
