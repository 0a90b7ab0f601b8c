// Google-benchmark microbenchmarks for the performance-critical kernels:
// pattern evaluation, CATE estimation, Apriori mining, and the simplex
// solver. These back the engineering claims in DESIGN.md rather than a
// specific paper figure.
//
// Every benchmark calls SetItemsProcessed with its natural work unit
// (rows scanned, candidates considered), so the reported items_per_second
// is comparable across runs. All benchmarks here are single-threaded,
// which makes items_per_second a per-core throughput figure.

#include <benchmark/benchmark.h>

#include "causal/estimator_context.h"
#include "datagen/stackoverflow.h"
#include "engine/eval_engine.h"
#include "lp/rounding.h"
#include "mining/apriori.h"
#include "util/rng.h"

namespace causumx {
namespace {

const GeneratedDataset& SoDataset() {
  static const GeneratedDataset* ds = [] {
    StackOverflowOptions opt;
    opt.num_rows = 10000;
    return new GeneratedDataset(MakeStackOverflowDataset(opt));
  }();
  return *ds;
}

void BM_PatternEvaluate(benchmark::State& state) {
  const GeneratedDataset& ds = SoDataset();
  const Pattern p({SimplePredicate("Education", CompareOp::kEq,
                                   Value("Masters degree")),
                   SimplePredicate("Age", CompareOp::kLt,
                                   Value(int64_t{35}))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Evaluate(ds.table));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.table.NumRows()));
}
BENCHMARK(BM_PatternEvaluate);

// Same pattern through the shared engine: after the first iteration the
// two atom bitsets are cached, so evaluation is a word-wise AND.
void BM_EnginePatternEvaluate(benchmark::State& state) {
  const GeneratedDataset& ds = SoDataset();
  EvalEngine engine(BorrowTable(ds.table));
  const Pattern p({SimplePredicate("Education", CompareOp::kEq,
                                   Value("Masters degree")),
                   SimplePredicate("Age", CompareOp::kLt,
                                   Value(int64_t{35}))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Evaluate(p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.table.NumRows()));
}
BENCHMARK(BM_EnginePatternEvaluate);

// Note: EstimatorContext memoizes per (treatment, outcome,
// subpopulation), so steady state here measures a memo hit. Compare
// against BM_CateEstimationUncached for the full-regression cost.
void BM_CateEstimation(benchmark::State& state) {
  const GeneratedDataset& ds = SoDataset();
  EstimatorContext est(std::make_shared<EvalEngine>(BorrowTable(ds.table)),
                       ds.dag, {});
  const Pattern treatment({SimplePredicate("Education", CompareOp::kEq,
                                           Value("Masters degree"))});
  Bitset all(ds.table.NumRows());
  all.SetAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateCate(treatment, "Salary", all));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.table.NumRows()));
}
BENCHMARK(BM_CateEstimation);

// The memo-free estimation cost: an engine with caches bypassed
// recomputes the regression on every call (what every EstimateCate used
// to cost before the engine existed).
void BM_CateEstimationUncached(benchmark::State& state) {
  const GeneratedDataset& ds = SoDataset();
  auto engine = std::make_shared<EvalEngine>(
      BorrowTable(ds.table), EvalEngineOptions{.cache_enabled = false});
  EstimatorContext est(engine, ds.dag, {});
  const Pattern treatment({SimplePredicate("Education", CompareOp::kEq,
                                           Value("Masters degree"))});
  Bitset all(ds.table.NumRows());
  all.SetAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateCate(treatment, "Salary", all));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.table.NumRows()));
}
BENCHMARK(BM_CateEstimationUncached);

void BM_AprioriMining(benchmark::State& state) {
  const GeneratedDataset& ds = SoDataset();
  AprioriOptions opt;
  opt.min_support = 0.1;
  opt.max_length = static_cast<size_t>(state.range(0));
  const std::vector<std::string> attrs = {"Continent", "HDI", "Gini",
                                          "GDP"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineFrequentPatterns(ds.table, attrs, opt));
  }
  // One row scan per mined level is the dominant cost.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.table.NumRows()) *
                          state.range(0));
}
BENCHMARK(BM_AprioriMining)->Arg(1)->Arg(2)->Arg(3);

void BM_SimplexSelection(benchmark::State& state) {
  // A selection LP with `range` candidates over 50 groups.
  const size_t l = static_cast<size_t>(state.range(0));
  SelectionProblem p;
  p.num_groups = 50;
  p.k = 5;
  p.theta = 0.75;
  Rng rng(3);
  for (size_t j = 0; j < l; ++j) {
    Bitset cov(50);
    for (size_t g = 0; g < 50; ++g) {
      if (rng.NextBool(0.2)) cov.Set(g);
    }
    p.candidates.push_back({1.0 + rng.NextDouble() * 10, std::move(cov)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveByLpRounding(p, 16, 7));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(l));
}
BENCHMARK(BM_SimplexSelection)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace causumx

BENCHMARK_MAIN();
