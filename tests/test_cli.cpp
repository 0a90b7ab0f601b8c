// End-to-end tests of the `causumx` binary in explain mode: it is run on
// a small generated CSV and its stdout is compared byte for byte with
// what the library prints for the same request. The test never starts
// the serve or monitor modes.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "core/json_export.h"
#include "core/renderer.h"
#include "dataset/csv.h"
#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "util/rng.h"
#include "util/string_utils.h"

#ifndef CAUSUMX_CLI
#error "CAUSUMX_CLI must name the causumx binary"
#endif

namespace causumx {
namespace {

// Rows of a salary table whose outcome depends on Education and Role.
std::string SalaryRows(size_t n, uint64_t seed) {
  static const char* kCountries[] = {"US", "DE", "IN", "BR", "FR", "JP"};
  static const char* kEducation[] = {"BS", "MS", "PhD", "None"};
  static const char* kRoles[] = {"Dev", "QA", "Mgr", "Ops"};
  static const double kEducationEffect[] = {10, 20, 30, 0};
  static const double kRoleEffect[] = {15, 0, 25, 5};
  Rng rng(seed);
  std::string csv;
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.NextBounded(6);
    const size_t e = rng.NextBounded(4);
    const size_t r = rng.NextBounded(4);
    const double salary = 50 + 5.0 * static_cast<double>(c) +
                          kEducationEffect[e] + kRoleEffect[r] +
                          rng.NextGaussian(0, 8);
    csv += StrFormat("%s,%s,%s,%.2f\n", kCountries[c], kEducation[e],
                     kRoles[r], salary);
  }
  return csv;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

// What one CLI run printed on stdout, and how it exited.
struct CliRun {
  std::string out;
  int exit_code = -1;
};

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = ::testing::TempDir() + "causumx_cli_" +
           std::to_string(::getpid()) + "/";
    ::mkdir(dir_.c_str(), 0755);
    const std::string header = "Country,Education,Role,Salary\n";
    const std::string base = SalaryRows(400, 11);
    const std::string delta = SalaryRows(100, 12);
    WriteFile(dir_ + "base.csv", header + base);
    WriteFile(dir_ + "delta.csv", header + delta);
    WriteFile(dir_ + "full.csv", header + base + delta);
    WriteFile(dir_ + "g.dag",
              "Education -> Salary\nRole -> Salary\nEducation -> Role\n"
              "Country -> Salary\n");
  }

  static void TearDownTestSuite() {
    for (const char* file : {"base.csv", "delta.csv", "full.csv", "g.dag"}) {
      std::remove(Path(file).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  static std::string Path(const std::string& file) { return dir_ + file; }

  // The explain request every test sends, as CLI flags and as the
  // request fields those flags set.
  static std::string QueryFlags() {
    return "--csv " + Path("base.csv") +
           " --group-by Country --avg Salary --dag " + Path("g.dag") +
           " --k 3";
  }
  static BoundExplain Bound(const Table& table) {
    const std::map<std::string, std::string> fields = {
        {"group_by", "Country"},
        {"avg", "Salary"},
        {"dag", Path("g.dag")},
        {"k", "3"}};
    return ExplainSpec::FromText(fields).Bind(table);
  }

  static CliRun Run(const std::string& args) {
    const std::string command =
        std::string(CAUSUMX_CLI) + " " + args + " 2>/dev/null";
    CliRun run;
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) return run;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      run.out.append(buffer, n);
    }
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
    return run;
  }

  static std::string JsonLine(const std::string& csv) {
    const Table table = ReadCsvFile(Path(csv));
    const BoundExplain bound = Bound(table);
    return SummaryToJson(
               RunCauSumX(table, bound.query, bound.dag, bound.config)
                   .summary,
               &bound.query) +
           "\n";
  }

  static std::string dir_;
};

std::string CliTest::dir_;

TEST_F(CliTest, JsonMatchesRunCauSumX) {
  const CliRun run = Run(QueryFlags() + " --json");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out, JsonLine("base.csv"));
}

TEST_F(CliTest, ThreadCountsPrintIdenticalBytes) {
  for (const char* mode : {" --json", " --top-treatments 2"}) {
    const CliRun one = Run(QueryFlags() + mode + " --threads 1");
    const CliRun three = Run(QueryFlags() + mode + " --threads 3");
    EXPECT_EQ(one.exit_code, 0) << mode;
    EXPECT_FALSE(one.out.empty()) << mode;
    EXPECT_EQ(one.out, three.out) << mode;
  }
}

TEST_F(CliTest, TextModePrintsTheServiceDrillDown) {
  const CliRun run = Run(QueryFlags() + " --top-treatments 3");
  EXPECT_EQ(run.exit_code, 0);

  ExplanationService service;
  const auto table =
      service.RegisterTable("t", ReadCsvFile(Path("base.csv")));
  const BoundExplain bound = Bound(*table);
  RenderStyle style;
  style.outcome_noun = bound.query.avg_attribute;
  auto top = [&](TreatmentSign sign) {
    return RenderTreatmentList(
        service.TopTreatments("t", bound.query, bound.dag, bound.config,
                              Pattern(), sign, 3),
        style);
  };
  const std::string drill_down =
      "\nTop treatments over the full relation:\npositive:\n" +
      top(TreatmentSign::kPositive) + "negative:\n" +
      top(TreatmentSign::kNegative);
  const ExplanationSummary summary =
      RunCauSumX(*table, bound.query, bound.dag, bound.config).summary;
  EXPECT_NE(drill_down.find(" 1. "), std::string::npos);
  EXPECT_EQ(run.out, "\n" + bound.query.ToSql(Path("base.csv")) + "\n\n" +
                         RenderSummary(summary, style) + drill_down);
}

TEST_F(CliTest, AppendPrintsBeforeAndAfterSummaries) {
  const CliRun run =
      Run(QueryFlags() + " --append " + Path("delta.csv") + " --json");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out, JsonLine("base.csv") + JsonLine("full.csv"));
}

TEST_F(CliTest, BadArgumentsExit2) {
  for (const char* bad :
       {" --bogus", " --threads abc", " --threads -1", " --threads 4x",
        " --top-treatments 4x", " --budget-mb -1", " --threads"}) {
    const CliRun run = Run(QueryFlags() + bad);
    EXPECT_EQ(run.exit_code, 2) << bad;
    EXPECT_EQ(run.out, "") << bad;
  }
}

}  // namespace
}  // namespace causumx
