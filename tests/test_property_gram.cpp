// Differential property suite for Gram-block CATE estimation: every
// EffectEstimate an EstimatorContext returns — computed from cached
// treatment-independent Gram blocks plus a per-treatment row — must equal,
// field by field and bit for bit, the per-row reference below, which
// gathers the rows, fills a dense DesignMatrix and calls FitOls (or runs
// the IPW model over the same design). Covered: the five paper datasets,
// engine plans of 1-16 shards, contexts derived by append and by
// retraction, sampled fits, a table large enough for the pool branch and
// several OLS chunks, a cache-bypass engine, eviction, and IPW.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "causal/estimator_context.h"
#include "causal/ols.h"
#include "datagen/registry.h"
#include "mining/treatment_miner.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace causumx {
namespace {

// ---- the per-row reference --------------------------------------------------

struct RefConfounder {
  const Column* col;
  bool categorical;
  std::vector<int32_t> kept_codes;
};

// The estimator as a per-row design fit: rows = subpopulation with a
// non-null outcome (sampled past the cap, seeded by the treatment),
// treatment by row-at-a-time Matches, confounders one-hot encoded over
// the rows with the most frequent level dropped (ties by dictionary
// string) and the long tail merged, numeric ones as values (null -> 0).
EffectEstimate ReferenceCate(const Table& table, const CausalDag& dag,
                             const EstimatorOptions& options,
                             const Pattern& treatment,
                             const std::string& outcome,
                             const Bitset& subpopulation) {
  EffectEstimate est;
  const auto y_idx = table.ColumnIndex(outcome);
  if (!y_idx) return est;
  const Column& y_col = table.column(*y_idx);
  std::vector<size_t> rows;
  for (size_t r : subpopulation.ToIndices()) {
    if (!y_col.IsNull(r)) rows.push_back(r);
  }
  if (options.sample_cap > 0 && rows.size() > options.sample_cap) {
    Rng rng(options.sample_seed ^ treatment.Hash());
    std::vector<size_t> sampled;
    for (size_t i : rng.SampleIndices(rows.size(), options.sample_cap)) {
      sampled.push_back(rows[i]);
    }
    std::sort(sampled.begin(), sampled.end());
    rows = std::move(sampled);
  }
  if (rows.size() < 2 * options.min_group_size) return est;
  std::vector<uint8_t> treated(rows.size());
  size_t n_treated = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    treated[i] = treatment.Matches(table, rows[i]) ? 1 : 0;
    n_treated += treated[i];
  }
  est.n_treated = n_treated;
  est.n_control = rows.size() - n_treated;
  if (est.n_treated < options.min_group_size ||
      est.n_control < options.min_group_size) {
    return est;
  }

  std::vector<RefConfounder> confounders;
  size_t extra = 0;
  for (const auto& name :
       dag.BackdoorAdjustmentSet(treatment.Attributes(), outcome)) {
    const auto idx = table.ColumnIndex(name);
    if (!idx) continue;
    const Column& c = table.column(*idx);
    RefConfounder enc{&c, c.type() == ColumnType::kCategorical, {}};
    if (enc.categorical) {
      std::vector<size_t> freq(c.dictionary().size(), 0);
      for (size_t r : rows) {
        if (c.GetCode(r) != Column::kNullCode) ++freq[c.GetCode(r)];
      }
      std::vector<std::pair<int32_t, size_t>> levels;
      for (size_t code = 0; code < freq.size(); ++code) {
        if (freq[code] > 0) {
          levels.emplace_back(static_cast<int32_t>(code), freq[code]);
        }
      }
      if (levels.size() < 2) continue;
      std::sort(levels.begin(), levels.end(),
                [&c](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return c.DictString(a.first) < c.DictString(b.first);
                });
      const size_t keep =
          std::min(options.max_onehot_levels, levels.size() - 1);
      for (size_t l = 1; l <= keep; ++l) {
        enc.kept_codes.push_back(levels[l].first);
      }
      extra += enc.kept_codes.size();
    } else {
      ++extra;
    }
    confounders.push_back(std::move(enc));
  }
  const size_t p = 2 + extra;
  if (rows.size() <= p + 1) return est;

  // Fills the confounder block of design row i from column `offset`.
  auto fill = [&](DesignMatrix* x, size_t i, size_t offset) {
    size_t col = offset;
    for (const auto& enc : confounders) {
      if (enc.categorical) {
        const int32_t code = enc.col->GetCode(rows[i]);
        for (int32_t kept : enc.kept_codes) {
          x->At(i, col++) = code == kept ? 1.0 : 0.0;
        }
      } else {
        const double v = enc.col->GetNumeric(rows[i]);
        x->At(i, col++) = std::isnan(v) ? 0.0 : v;
      }
    }
  };
  std::vector<double> y(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) y[i] = y_col.GetNumeric(rows[i]);

  if (options.method == EstimationMethod::kRegressionAdjustment) {
    DesignMatrix x(rows.size(), p);
    for (size_t i = 0; i < rows.size(); ++i) {
      x.At(i, 0) = 1.0;
      x.At(i, 1) = treated[i];
      fill(&x, i, 2);
    }
    const OlsResult fit = FitOls(x, y);
    if (!fit.ok) return est;
    est.valid = true;
    est.cate = fit.coefficients[1];
    est.std_error = fit.std_errors[1];
    est.p_value = fit.PValue(1);
    est.n_used = rows.size();
    return est;
  }

  // IPW: logistic propensity T ~ 1 + Z by Newton steps, then the Hajek
  // estimator with clipped weights and its influence-function variance.
  const size_t q = 1 + extra;
  DesignMatrix z(rows.size(), q);
  for (size_t i = 0; i < rows.size(); ++i) {
    z.At(i, 0) = 1.0;
    fill(&z, i, 1);
  }
  std::vector<double> beta(q, 0.0);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<std::vector<double>> ztwz(q, std::vector<double>(q, 0.0));
    std::vector<double> grad(q, 0.0);
    for (size_t i = 0; i < rows.size(); ++i) {
      double eta = 0.0;
      for (size_t j = 0; j < q; ++j) eta += z.At(i, j) * beta[j];
      const double mu = 1.0 / (1.0 + std::exp(-eta));
      const double w = std::max(1e-6, mu * (1.0 - mu));
      const double resid = static_cast<double>(treated[i]) - mu;
      for (size_t a = 0; a < q; ++a) {
        grad[a] += z.At(i, a) * resid;
        for (size_t b = a; b < q; ++b) {
          ztwz[a][b] += w * z.At(i, a) * z.At(i, b);
        }
      }
    }
    for (size_t a = 0; a < q; ++a) {
      for (size_t b = 0; b < a; ++b) ztwz[a][b] = ztwz[b][a];
    }
    std::vector<double> step = grad;
    if (!SolveSpd(&ztwz, &step)) break;
    double max_step = 0.0;
    for (size_t j = 0; j < q; ++j) {
      beta[j] += step[j];
      max_step = std::max(max_step, std::fabs(step[j]));
    }
    if (max_step < 1e-8) break;
  }
  const double clip = std::clamp(options.propensity_clip, 1e-6, 0.49);
  double sw1 = 0, sw0 = 0, sy1 = 0, sy0 = 0;
  std::vector<double> prop(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    double eta = 0.0;
    for (size_t j = 0; j < q; ++j) eta += z.At(i, j) * beta[j];
    const double e =
        std::clamp(1.0 / (1.0 + std::exp(-eta)), clip, 1.0 - clip);
    prop[i] = e;
    if (treated[i]) {
      sw1 += 1.0 / e;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
      sy1 += 1.0 / e * y[i];
    } else {
      sw0 += 1.0 / (1.0 - e);
      sy0 += 1.0 / (1.0 - e) * y[i];
    }
  }
  if (sw1 <= 0 || sw0 <= 0) return est;
  const double mu1 = sy1 / sw1;
  const double mu0 = sy0 / sw0;
  double var_sum = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double psi = treated[i] ? (y[i] - mu1) / prop[i]
                                  : -(y[i] - mu0) / (1.0 - prop[i]);
    var_sum += psi * psi;  // causumx-lint: allow(fp-accumulation) serial fixed row order)
  }
  est.valid = true;
  est.cate = mu1 - mu0;
  est.std_error = std::sqrt(var_sum) / static_cast<double>(rows.size());
  est.p_value = est.std_error > 0
                    ? TwoSidedPValueZ(est.cate / est.std_error)
                    : 1.0;
  est.n_used = rows.size();
  return est;
}

// ---- harness ----------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectIdentical(const EffectEstimate& got, const EffectEstimate& want,
                     const std::string& what) {
  EXPECT_EQ(got.valid, want.valid) << what;
  EXPECT_EQ(Bits(got.cate), Bits(want.cate)) << what << " cate " << got.cate
                                             << " vs " << want.cate;
  EXPECT_EQ(Bits(got.std_error), Bits(want.std_error)) << what;
  EXPECT_EQ(Bits(got.p_value), Bits(want.p_value)) << what;
  EXPECT_EQ(got.n_treated, want.n_treated) << what;
  EXPECT_EQ(got.n_control, want.n_control) << what;
  EXPECT_EQ(got.n_used, want.n_used) << what;
}

// Treatments: the dataset's level-1 atoms (up to `max_atoms`) and the
// conjunctions of consecutive atoms on different attributes.
std::vector<Pattern> Treatments(EvalEngine& engine,
                                const std::vector<std::string>& attributes,
                                size_t max_atoms) {
  std::vector<SimplePredicate> atoms =
      GenerateAtomicTreatments(engine, attributes, TreatmentMinerOptions{});
  if (atoms.size() > max_atoms) atoms.resize(max_atoms);
  std::vector<Pattern> out;
  for (const auto& a : atoms) out.push_back(Pattern({a}));
  for (size_t i = 0; i + 1 < atoms.size(); ++i) {
    if (atoms[i].attribute != atoms[i + 1].attribute) {
      out.push_back(Pattern({atoms[i], atoms[i + 1]}));
    }
  }
  return out;
}

// Subpopulations: every row (the ATE) and the rows of the first
// `max_groups` values of `attribute`.
std::vector<Bitset> Subpopulations(EvalEngine& engine,
                                   const std::string& attribute,
                                   size_t max_groups) {
  std::vector<Bitset> out;
  Bitset all(engine.table().NumRows());
  all.SetAll();
  out.push_back(all);
  const auto idx = engine.table().ColumnIndex(attribute);
  const auto values = engine.DistinctValues(*idx);
  for (size_t i = 0; i < values->size() && i < max_groups; ++i) {
    out.push_back(engine.Evaluate(Pattern(
        {SimplePredicate(attribute, CompareOp::kEq, (*values)[i])})));
  }
  return out;
}

// Estimates every (treatment, subpopulation) pair twice — the second
// round is served by the memo — and compares each against the
// reference. Returns the number of compared estimates.
size_t CheckAgainstReference(EstimatorContext& ctx,
                             const std::vector<Pattern>& treatments,
                             const std::vector<Bitset>& subpops,
                             const std::string& outcome,
                             const std::string& label) {
  size_t compared = 0;
  size_t valid = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t s = 0; s < subpops.size(); ++s) {
      for (const Pattern& t : treatments) {
        const EffectEstimate want =
            ReferenceCate(ctx.table(), ctx.dag(), ctx.options(), t, outcome,
                          subpops[s]);
        ExpectIdentical(ctx.EstimateCate(t, outcome, subpops[s]), want,
                        label + " subpop " + std::to_string(s) + " " +
                            t.ToString());
        ++compared;
        valid += want.valid;
      }
    }
  }
  EXPECT_GT(valid, 0u) << label;
  return compared;
}

std::vector<std::string> TreatmentAttributes(const GeneratedDataset& d) {
  if (!d.treatment_attribute_hint.empty()) return d.treatment_attribute_hint;
  std::vector<std::string> out;
  for (const auto& name : d.table.ColumnNames()) {
    if (name == d.default_query.avg_attribute) continue;
    if (std::find(d.default_query.group_by.begin(),
                  d.default_query.group_by.end(),
                  name) != d.default_query.group_by.end()) {
      continue;
    }
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> PaperDatasets() {
  std::vector<std::string> names = RegisteredDatasetNames();
  names.erase(std::remove(names.begin(), names.end(), "Synthetic"),
              names.end());
  return names;
}

// ---- properties -------------------------------------------------------------

TEST(GramPropertyTest, PaperDatasetsMatchTheReference) {
  for (const std::string& name : PaperDatasets()) {
    GeneratedDataset d = MakeDatasetByName(name, 0.05);
    auto engine = std::make_shared<EvalEngine>(BorrowTable(d.table));
    EstimatorContext ctx(engine, d.dag, EstimatorOptions{});
    const auto treatments = Treatments(*engine, TreatmentAttributes(d), 12);
    const auto subpops =
        Subpopulations(*engine, d.default_query.group_by[0], 5);
    const size_t n = CheckAgainstReference(
        ctx, treatments, subpops, d.default_query.avg_attribute, name);
    const EstimatorCacheStats s = ctx.Stats();
    EXPECT_EQ(s.memo_hits + s.memo_misses, n) << name;
    // Blocks are shared across treatments with one adjustment set.
    EXPECT_GT(s.gram_hits, 0u) << name;
    EXPECT_LE(s.gram_builds + s.gram_hits, s.memo_misses) << name;
    EXPECT_GT(s.gram_bytes, 0u) << name;
    EXPECT_EQ(ctx.CacheBytes() >= s.memo_bytes + s.gram_bytes, true) << name;
  }
}

TEST(GramPropertyTest, ShardPlansOneToSixteenMatchTheReference) {
  GeneratedDataset d = MakeDatasetByName("Adult", 0.05);
  const auto table = BorrowTable(d.table);
  for (size_t shards : {1, 2, 3, 7, 16}) {
    EvalEngineOptions options;
    options.num_shards = shards;
    options.pool = std::make_shared<ThreadPool>(2);
    auto engine = std::make_shared<EvalEngine>(table, options);
    EstimatorContext ctx(engine, d.dag, EstimatorOptions{});
    CheckAgainstReference(ctx, Treatments(*engine, TreatmentAttributes(d), 8),
                          Subpopulations(*engine, d.default_query.group_by[0], 4),
                          d.default_query.avg_attribute,
                          "shards " + std::to_string(shards));
  }
}

TEST(GramPropertyTest, DerivedContextsStartEmptyAndMatchTheReference) {
  GeneratedDataset d = MakeDatasetByName("Accidents", 0.05);
  const size_t n = d.table.NumRows();
  const size_t base_rows = n * 3 / 4;
  const std::string outcome = d.default_query.avg_attribute;
  const std::string group = d.default_query.group_by[0];
  EvalEngineOptions options;
  options.num_shards = 4;

  auto base_table = std::make_shared<const Table>(d.table.Head(base_rows));
  auto base_engine = std::make_shared<EvalEngine>(base_table, options);
  auto base_ctx =
      std::make_shared<EstimatorContext>(base_engine, d.dag, EstimatorOptions{});
  const auto treatments = Treatments(*base_engine, TreatmentAttributes(d), 8);
  CheckAgainstReference(*base_ctx, treatments,
                        Subpopulations(*base_engine, group, 4), outcome, "base");
  ASSERT_GT(base_ctx->Stats().gram_bytes, 0u);

  // Append: the remaining rows.
  Table grown = base_table->Clone();
  grown.AppendRows(d.table.MaterializeRows(base_rows, n));
  auto grown_table = std::make_shared<const Table>(std::move(grown));
  auto grown_engine =
      std::make_shared<EvalEngine>(grown_table, *base_engine, 0);
  auto grown_ctx =
      std::make_shared<EstimatorContext>(grown_engine, *base_ctx, 0);
  EXPECT_EQ(grown_ctx->Stats().gram_bytes, 0u);
  EXPECT_EQ(grown_ctx->Stats().gram_builds, 0u);
  CheckAgainstReference(*grown_ctx, treatments,
                        Subpopulations(*grown_engine, group, 4), outcome,
                        "appended");

  // Retraction: drop a prefix of 100 rows.
  auto tail_table = std::make_shared<const Table>(grown_table->Tail(100));
  auto tail_engine =
      std::make_shared<EvalEngine>(tail_table, *grown_engine, 100);
  EstimatorContext tail_ctx(tail_engine, *grown_ctx, 100);
  EXPECT_EQ(tail_ctx.Stats().gram_bytes, 0u);
  CheckAgainstReference(tail_ctx, treatments,
                        Subpopulations(*tail_engine, group, 4), outcome,
                        "retracted");
}

TEST(GramPropertyTest, SampledFitsMatchTheReferenceAndCacheNothing) {
  GeneratedDataset d = MakeDatasetByName("Adult", 0.05);
  auto engine = std::make_shared<EvalEngine>(BorrowTable(d.table));
  EstimatorOptions options;
  options.sample_cap = 300;
  ASSERT_GT(d.table.NumRows(), 2 * options.sample_cap);
  EstimatorContext ctx(engine, d.dag, options);
  Bitset all(d.table.NumRows());
  all.SetAll();
  const size_t n = CheckAgainstReference(
      ctx, Treatments(*engine, TreatmentAttributes(d), 8), {all},
      d.default_query.avg_attribute, "sampled");
  const EstimatorCacheStats s = ctx.Stats();
  EXPECT_EQ(s.gram_builds, n / 2);  // one per miss; the repeats hit the memo
  EXPECT_EQ(s.gram_hits, 0u);
  EXPECT_EQ(s.gram_bytes, 0u);
}

// A mixed table with null outcomes and null numeric confounders.
Table MakeLargeTable(size_t n, uint64_t seed) {
  Table t;
  t.AddColumn("Z1", ColumnType::kCategorical);
  t.AddColumn("Z2", ColumnType::kDouble);
  t.AddColumn("T", ColumnType::kCategorical);
  t.AddColumn("Y", ColumnType::kDouble);
  Rng rng(seed);
  const char* levels[] = {"a", "b", "c", "d", "e"};
  const char* arms[] = {"x", "y", "z"};
  for (size_t i = 0; i < n; ++i) {
    const size_t z1 = rng.NextBounded(5);
    const double z2 = rng.NextGaussian(50.0, 10.0);
    const size_t arm = (z1 + rng.NextBounded(3)) % 3;
    const double y = 3.0 * static_cast<double>(arm) + 0.5 * z2 +
                     static_cast<double>(z1) + rng.NextGaussian(0, 2.0);
    t.AddRow({Value(levels[z1]), rng.NextBool(0.03) ? Value() : Value(z2),
              Value(arms[arm]), rng.NextBool(0.02) ? Value() : Value(y)});
  }
  return t;
}

TEST(GramPropertyTest, PoolBranchAndManyChunksMatchTheReference) {
  const Table table = MakeLargeTable(kParallelEstimateRowThreshold + 7000, 5);
  CausalDag dag;
  dag.AddEdge("Z1", "T");
  dag.AddEdge("Z2", "T");
  dag.AddEdge("Z1", "Y");
  dag.AddEdge("Z2", "Y");
  dag.AddEdge("T", "Y");
  EvalEngineOptions options;
  options.num_shards = 5;
  options.pool = std::make_shared<ThreadPool>(3);
  auto engine = std::make_shared<EvalEngine>(BorrowTable(table), options);
  EstimatorContext ctx(engine, dag, EstimatorOptions{});
  std::vector<Pattern> treatments;
  for (const char* arm : {"x", "y", "z"}) {
    treatments.push_back(
        Pattern({SimplePredicate("T", CompareOp::kEq, Value(arm))}));
  }
  // 9 OLS chunks over every row, 2 over one Z1 level.
  const size_t n = CheckAgainstReference(
      ctx, treatments, Subpopulations(*engine, "Z1", 1), "Y", "large");
  EXPECT_EQ(ctx.Stats().gram_builds, 2u);
  EXPECT_EQ(ctx.Stats().gram_hits, n / 2 - 2);
}

TEST(GramPropertyTest, CacheBypassEngineMatchesTheReference) {
  GeneratedDataset d = MakeDatasetByName("German", 0.5);
  EvalEngineOptions options;
  options.cache_enabled = false;
  auto engine = std::make_shared<EvalEngine>(BorrowTable(d.table), options);
  EstimatorContext ctx(engine, d.dag, EstimatorOptions{});
  const size_t n = CheckAgainstReference(
      ctx, Treatments(*engine, TreatmentAttributes(d), 8),
      Subpopulations(*engine, d.default_query.group_by[0], 3),
      d.default_query.avg_attribute, "bypass");
  EXPECT_EQ(ctx.Stats().memo_misses, n);
  EXPECT_EQ(ctx.Stats().gram_builds, n);
  EXPECT_EQ(ctx.CacheBytes(), 0u);
}

TEST(GramPropertyTest, EvictionDropsBlocksFirstAndRefitsIdentically) {
  GeneratedDataset d = MakeDatasetByName("SO", 0.05);
  auto engine = std::make_shared<EvalEngine>(BorrowTable(d.table));
  EstimatorContext ctx(engine, d.dag, EstimatorOptions{});
  const auto treatments = Treatments(*engine, TreatmentAttributes(d), 6);
  const auto subpops = Subpopulations(*engine, d.default_query.group_by[0], 3);
  const std::string outcome = d.default_query.avg_attribute;
  CheckAgainstReference(ctx, treatments, subpops, outcome, "warm");
  const EstimatorCacheStats warm = ctx.Stats();
  ASSERT_GT(warm.gram_bytes, 0u);

  // One byte evicts the least recently used block and no memo entry.
  EXPECT_GT(ctx.EvictLru(1), 0u);
  EXPECT_LT(ctx.Stats().gram_bytes, warm.gram_bytes);
  EXPECT_EQ(ctx.Stats().memo_entries, warm.memo_entries);
  EXPECT_EQ(ctx.Stats().memo_evicted, 0u);

  // Everything: the refits rebuild their blocks bit-identically.
  ctx.EvictLru(ctx.CacheBytes());
  EXPECT_EQ(ctx.CacheBytes(), 0u);
  CheckAgainstReference(ctx, treatments, subpops, outcome, "refit");
  EXPECT_GT(ctx.Stats().gram_builds, warm.gram_builds);
}

TEST(GramPropertyTest, IpwMatchesTheReference) {
  for (const char* name : {"German", "Adult"}) {
    GeneratedDataset d = MakeDatasetByName(name, 0.05);
    auto engine = std::make_shared<EvalEngine>(BorrowTable(d.table));
    EstimatorOptions options;
    options.method = EstimationMethod::kIpw;
    EstimatorContext ctx(engine, d.dag, options);
    CheckAgainstReference(ctx, Treatments(*engine, TreatmentAttributes(d), 6),
                          Subpopulations(*engine, d.default_query.group_by[0], 3),
                          d.default_query.avg_attribute, name);
  }
}

}  // namespace
}  // namespace causumx
