// End-to-end tests of the causumx_bench driver binary: its argument and
// CAUSUMX_BENCH_SCALE handling, and one figure section's --json cells
// against the committed REPRO.json.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"

#ifndef CAUSUMX_BENCH
#error "CAUSUMX_BENCH must name the causumx_bench binary"
#endif
#ifndef CAUSUMX_REPRO_JSON
#error "CAUSUMX_REPRO_JSON must name the committed REPRO.json"
#endif

namespace causumx {
namespace {

struct BenchRun {
  int exit_code = -1;
  std::string out;  // stdout
};

// Runs the driver with `env` assignments prefixed and `args` appended.
BenchRun RunBench(const std::string& env, const std::string& args) {
  const std::string command =
      env + " " + std::string(CAUSUMX_BENCH) + " " + args + " 2>/dev/null";
  BenchRun run;
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

JsonValue ReadJson(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.AsBool() == b.AsBool();
    case JsonValue::Kind::kNumber:
      return a.AsNumber() == b.AsNumber();
    case JsonValue::Kind::kString:
      return a.AsString() == b.AsString();
    case JsonValue::Kind::kArray: {
      const auto& x = a.AsArray();
      const auto& y = b.AsArray();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!SameJson(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      const auto& x = a.AsObject();
      const auto& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (const auto& [key, value] : x) {
        const auto it = y.find(key);
        if (it == y.end() || !SameJson(value, it->second)) return false;
      }
      return true;
    }
  }
  return false;
}

TEST(BenchDriverTest, ListsEverySection) {
  const BenchRun run = RunBench("", "--list");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* name : {"datasets", "vary_k", "accuracy", "ablation",
                           "service", "streaming", "shards", "server",
                           "persistence", "monitor", "kernels"}) {
    EXPECT_NE(run.out.find(std::string("  ") + name + " "), std::string::npos)
        << name;
  }
}

TEST(BenchDriverTest, UnknownSectionExitsTwo) {
  EXPECT_EQ(RunBench("", "no_such_section").exit_code, 2);
  EXPECT_EQ(RunBench("", "--json").exit_code, 2);
}

TEST(BenchDriverTest, BadScaleExitsTwo) {
  EXPECT_EQ(RunBench("CAUSUMX_BENCH_SCALE=abc", "accuracy").exit_code, 2);
  EXPECT_EQ(RunBench("CAUSUMX_BENCH_SCALE=0", "accuracy").exit_code, 2);
  EXPECT_EQ(RunBench("CAUSUMX_BENCH_SCALE=-1", "accuracy").exit_code, 2);
}

// The figure cells a section records are the ones REPRO.json commits.
TEST(BenchDriverTest, AccuracyMatchesRepro) {
  const std::string out = ::testing::TempDir() + "bench_driver_accuracy.json";
  const BenchRun run =
      RunBench("CAUSUMX_BENCH_SCALE=0.05", "accuracy --json " + out);
  ASSERT_EQ(run.exit_code, 0) << run.out;
  const JsonValue got = ReadJson(out);
  const JsonValue want = ReadJson(CAUSUMX_REPRO_JSON);
  ASSERT_NE(got.Find("accuracy"), nullptr);
  ASSERT_NE(want.Find("accuracy"), nullptr);
  EXPECT_TRUE(SameJson(*got.Find("accuracy"), *want.Find("accuracy")))
      << run.out;
  EXPECT_EQ(got.GetNumber("scale", 0), want.GetNumber("scale", 1));
  std::remove(out.c_str());
}

}  // namespace
}  // namespace causumx
