// Tests for interactive exploration through the service — re-solving
// for new k / theta / solver from the mined candidates, and the top-k
// treatment drill-down — plus JSON export.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "service/explanation_service.h"
#include "util/timer.h"

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

// A service holding the synthetic table as "t", and the query's config.
struct Exploration {
  GeneratedDataset ds = MakeData();
  CauSumXConfig config = MakeConfig(ds);
  ExplanationService service;

  Exploration() { service.RegisterTable("t", ds.table.Clone()); }

  ExplanationSummary Solve(size_t k, double theta,
                           FinalStepSolver solver =
                               FinalStepSolver::kLpRounding) {
    CauSumXConfig c = config;
    c.k = k;
    c.theta = theta;
    c.solver = solver;
    return service.Explain("t", ds.default_query, ds.dag, c).summary;
  }

  std::vector<ScoredTreatment> TopTreatments(const Pattern& grouping,
                                             TreatmentSign sign, size_t k) {
    return service.TopTreatments("t", ds.default_query, ds.dag, config,
                                 grouping, sign, k);
  }
};

TEST(ExplorationTest, SolveMatchesRunCauSumX) {
  Exploration x;
  x.config.k = 3;
  x.config.theta = 0.75;
  const CauSumXResult direct =
      RunCauSumX(x.ds.table, x.ds.default_query, x.ds.dag, x.config);

  const ExplanationSummary summary = x.Solve(3, 0.75);
  EXPECT_DOUBLE_EQ(summary.total_explainability,
                   direct.summary.total_explainability);
  EXPECT_EQ(summary.covered_groups, direct.summary.covered_groups);
  EXPECT_EQ(SummaryToJson(summary), SummaryToJson(direct.summary));
}

TEST(ExplorationTest, ReSolveIsFastAndConsistent) {
  Exploration x;
  x.Solve(3, 0.75);  // pays the mining cost
  const EstimatorCacheStats mined =
      x.service.Context("t", x.ds.dag, x.config.estimator)->Stats();

  Timer timer;
  for (size_t k = 1; k <= 4; ++k) {
    const ExplanationSummary s = x.Solve(k, 0.25);
    EXPECT_LE(s.explanations.size(), k);
  }
  // Re-solving 4 parameter settings must be much cheaper than mining
  // (mining this dataset takes tens of milliseconds; selection is sub-ms).
  EXPECT_LT(timer.Seconds(), 1.0);
  // One mining run; every re-solve is a candidate hit that estimates
  // nothing.
  EXPECT_EQ(x.service.Stats().candidate_misses, 1u);
  EXPECT_EQ(x.service.Stats().candidate_hits, 4u);
  const EstimatorCacheStats after =
      x.service.Context("t", x.ds.dag, x.config.estimator)->Stats();
  EXPECT_EQ(after.memo_misses, mined.memo_misses);
  EXPECT_EQ(after.memo_hits, mined.memo_hits);
}

TEST(ExplorationTest, MonotoneExplainabilityInK) {
  Exploration x;
  double prev = -1;
  for (size_t k = 1; k <= 4; ++k) {
    const ExplanationSummary s = x.Solve(k, 0.25, FinalStepSolver::kExact);
    EXPECT_GE(s.total_explainability + 1e-9, prev);
    prev = s.total_explainability;
  }
}

TEST(ExplorationTest, TopTreatmentsRankedAndDeduped) {
  Exploration x;
  const Pattern group({SimplePredicate("G1", CompareOp::kEq,
                                       Value("g1_b0"))});
  const auto top = x.TopTreatments(group, TreatmentSign::kPositive, 5);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::fabs(top[i - 1].effect.cate),
              std::fabs(top[i].effect.cate));
  }
  for (const auto& t : top) {
    EXPECT_GT(t.effect.cate, 0);
    EXPECT_TRUE(t.effect.valid);
  }
  // Distinct treated sets.
  for (size_t i = 0; i < top.size(); ++i) {
    for (size_t j = i + 1; j < top.size(); ++j) {
      EXPECT_FALSE(top[i].pattern == top[j].pattern);
    }
  }
}

TEST(ExplorationTest, TopTreatmentsEmptyGroupingMeansWholeTable) {
  Exploration x;
  const auto top = x.TopTreatments(Pattern(), TreatmentSign::kNegative, 3);
  ASSERT_FALSE(top.empty());
  for (const auto& t : top) EXPECT_LT(t.effect.cate, 0);
}

// The drill-down mines through the candidate cache (a miss first, hits
// after, shared with Explain) and ranks exactly what a lattice walk over
// the query's causal atoms on fresh caches ranks.
TEST(ExplorationTest, TopTreatmentsSharesTheMinedCandidates) {
  Exploration x;
  x.config.treatment_attribute_allowlist.clear();
  const auto top = x.TopTreatments(Pattern(), TreatmentSign::kPositive, 4);
  EXPECT_EQ(x.service.Stats().candidate_misses, 1u);
  EXPECT_EQ(x.service.Stats().candidate_hits, 0u);
  x.Solve(x.config.k, x.config.theta);
  x.TopTreatments(Pattern(), TreatmentSign::kNegative, 4);
  EXPECT_EQ(x.service.Stats().candidate_misses, 1u);
  EXPECT_EQ(x.service.Stats().candidate_hits, 2u);

  const auto engine = std::make_shared<EvalEngine>(BorrowTable(x.ds.table));
  EstimatorContext estimator(engine, x.ds.dag, x.config.estimator);
  const CauSumXResult direct =
      RunCauSumX(x.ds.table, x.ds.default_query, x.ds.dag, x.config);
  Bitset all(x.ds.table.NumRows());
  all.SetAll();
  const std::vector<ScoredTreatment> expected = MineTopKTreatments(
      estimator, all, x.ds.default_query.avg_attribute,
      CausalTreatmentAtoms(estimator, x.ds.default_query.avg_attribute,
                           direct.partition.treatment_attributes,
                           x.config.treatment),
      TreatmentSign::kPositive, 4, x.config.treatment);
  ASSERT_EQ(top.size(), expected.size());
  ASSERT_FALSE(top.empty());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(top[i].pattern == expected[i].pattern) << i;
    EXPECT_EQ(top[i].effect.cate, expected[i].effect.cate) << i;
  }
}

TEST(JsonExportTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(JsonExportTest, PredicateAndPattern) {
  SimplePredicate p("Age", CompareOp::kLt, Value(int64_t{35}));
  EXPECT_EQ(PredicateToJson(p),
            "{\"attribute\":\"Age\",\"op\":\"<\",\"value\":35}");
  SimplePredicate s("Role", CompareOp::kEq, Value("QA \"lead\""));
  EXPECT_NE(PredicateToJson(s).find("QA \\\"lead\\\""), std::string::npos);
  const Pattern pat({p, s});
  const std::string json = PatternToJson(pat);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"Age\""), std::string::npos);
}

TEST(JsonExportTest, SummaryRoundTripStructure) {
  const GeneratedDataset ds = MakeData();
  CauSumXConfig config = MakeConfig(ds);
  config.k = 2;
  config.theta = 0.25;
  const ExplanationSummary summary =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config).summary;
  const std::string json = SummaryToJson(summary, &ds.default_query);

  // Structural sanity: balanced braces/brackets, key fields present.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"explanations\""), std::string::npos);
  EXPECT_NE(json.find("\"cate\""), std::string::npos);
  EXPECT_NE(json.find("\"ci95\""), std::string::npos);
}

TEST(JsonExportTest, EffectCarriesConfidenceInterval) {
  EffectEstimate e;
  e.valid = true;
  e.cate = 10.0;
  e.std_error = 1.0;
  e.p_value = 0.001;
  const std::string json = EffectToJson(e);
  EXPECT_NE(json.find("\"ci95\":[8.04"), std::string::npos);
}

// A summary exercising every JSON-export branch: an escaped string
// constant, a null constant, int and double constants, a valid effect
// and an invalid one whose NaN fields must print as null.
ExplanationSummary PinnedSummary() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EffectEstimate strong;
  strong.valid = true;
  strong.cate = 12.3456789012;
  strong.std_error = 0.5;
  strong.p_value = 0.000123456789;
  strong.n_treated = 40;
  strong.n_control = 60;
  EffectEstimate invalid;
  invalid.cate = nan;
  invalid.std_error = nan;
  invalid.p_value = nan;

  Explanation first;
  first.grouping_pattern = Pattern(
      {SimplePredicate("Coun\"try", CompareOp::kEq, Value("U\\S\n\t"))});
  first.group_coverage = Bitset(3);
  first.group_coverage.Set(0);
  first.group_coverage.Set(2);
  first.positive = TreatmentSide{
      Pattern({SimplePredicate("age", CompareOp::kLt, Value(2.5)),
               SimplePredicate("kids", CompareOp::kGe, Value(int64_t{-7}))}),
      strong};
  first.negative = TreatmentSide{
      Pattern({SimplePredicate("ratio", CompareOp::kGt, Value(1.0 / 3.0))}),
      invalid};

  Explanation second;
  second.grouping_pattern =
      Pattern({SimplePredicate("z", CompareOp::kEq, Value())});
  second.group_coverage = Bitset(3);
  second.group_coverage.Set(1);
  second.negative = TreatmentSide{Pattern(), invalid};

  ExplanationSummary summary;
  summary.num_groups = 3;
  summary.covered_groups = 3;
  summary.coverage_satisfied = true;
  summary.total_explainability = 12.3456789012;
  summary.explanations = {first, second};
  return summary;
}

TEST(JsonExportTest, SummaryBytesArePinned) {
  // Monitors, the REST envelope and the benchmark's golden digests all
  // hash these exact bytes: any change to the serializer shows here.
  GroupByAvgQuery query;
  query.group_by = {"Coun\"try"};
  query.avg_attribute = "Salary";
  const std::string json = SummaryToJson(PinnedSummary(), &query);
  EXPECT_EQ(json,
      R"json({"query":"SELECT Coun\"try, AVG(Salary) FROM D GROUP BY Coun\"try","num_groups":3,"covered_groups":3,"coverage_satisfied":true,"total_explainability":12.345679,"explanations":[)json"
      R"json({"grouping_pattern":[{"attribute":"Coun\"try","op":"=","value":"U\\S\n\t"}],"groups_covered":[0,2],"weight":12.345679,"positive":{"pattern":[{"attribute":"age","op":"<","value":2.5},{"attribute":"kids","op":">=","value":-7}],"effect":{"valid":true,"cate":12.345679,"std_error":0.5,"p_value":0.00012345679,"ci95":[11.365697,13.325661],"n_treated":40,"n_control":60}},"negative":{"pattern":[{"attribute":"ratio","op":">","value":0.333333}],"effect":{"valid":false,"cate":null,"std_error":null,"p_value":null,"ci95":[null,null],"n_treated":0,"n_control":0}}})json"
      R"json(,{"grouping_pattern":[{"attribute":"z","op":"=","value":null}],"groups_covered":[1],"weight":0,"negative":{"pattern":[],"effect":{"valid":false,"cate":null,"std_error":null,"p_value":null,"ci95":[null,null],"n_treated":0,"n_control":0}}}]})json");
  // Without a query the document only drops the leading "query" member.
  EXPECT_EQ("{\"query\":\"" + JsonEscape(query.ToSql()) + "\"," +
                SummaryToJson(PinnedSummary()).substr(1),
            json);
}

}  // namespace
}  // namespace causumx
