// Fuzz harness for the explain-request spec (src/service/explain_spec.*)
// and the monitor spec built on it (src/stream/monitor.h).
//
// Properties checked on every input, parsed both as a batch/REST query
// request and as a monitor spec:
//   1. Parsing either returns a spec or throws std::runtime_error —
//      never crashes, never throws anything else.
//   2. An accepted spec is inside every documented limit: non-empty
//      group_by and avg, k >= 1, theta in [0, 1], support in (0, 1],
//      alpha in (0, 1), min_group_size >= 1.
//   3. Binding it to a tiny fixed table either succeeds — and the
//      configuration carries exactly the spec's knobs — or throws a
//      typed std::exception. A "dag" file path is cleared first: the
//      fuzzer must not read arbitrary files.
//
// Links against libFuzzer under clang (-DCAUSUMX_FUZZERS=ON); under GCC
// the same TU builds as a standalone corpus replayer (see
// standalone_main.h).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "dataset/table.h"
#include "service/batch.h"
#include "service/explain_spec.h"
#include "stream/monitor.h"
#include "util/json.h"

#include "fuzz/standalone_main.h"

namespace {

using causumx::BoundExplain;
using causumx::ColumnType;
using causumx::ExplainSpec;
using causumx::Table;
using causumx::Value;

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_explain_spec: %s: %s\n", what, detail.c_str());
  std::abort();
}

const Table& TinyTable() {
  static const Table table = [] {
    Table t;
    t.AddColumn("G", ColumnType::kCategorical);
    t.AddColumn("T", ColumnType::kCategorical);
    t.AddColumn("A", ColumnType::kDouble);
    t.AddColumn("Y", ColumnType::kDouble);
    for (int i = 0; i < 8; ++i) {
      t.AddRow({Value(i % 2 == 0 ? "g1" : "g2"), Value(i % 4 < 2 ? "hi" : "lo"),
                Value(static_cast<double>(i)),
                Value(static_cast<double>(i % 4 < 2 ? 9 + i : 1 + i))});
    }
    return t;
  }();
  return table;
}

void CheckSpec(ExplainSpec spec, const std::string& text) {
  if (spec.group_by.empty() || spec.avg.empty() || spec.k < 1 ||
      !(spec.theta >= 0.0 && spec.theta <= 1.0) ||
      !(spec.support > 0.0 && spec.support <= 1.0) ||
      !(spec.alpha > 0.0 && spec.alpha < 1.0) || spec.min_group_size < 1) {
    Die("accepted a spec outside its limits", text);
  }
  spec.dag.clear();
  BoundExplain bound;
  try {
    bound = spec.Bind(TinyTable());
  } catch (const std::exception&) {
    return;  // typed rejection (bad where, DAG text, or attribute)
  }
  if (bound.config.k != spec.k || bound.config.theta != spec.theta ||
      bound.config.apriori_support != spec.support ||
      bound.config.treatment.alpha != spec.alpha ||
      bound.config.estimator.min_group_size != spec.min_group_size ||
      bound.query.group_by != spec.group_by ||
      bound.query.avg_attribute != spec.avg) {
    Die("binding does not carry the spec", text);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  try {
    CheckSpec(causumx::ParseQueryRequest(causumx::JsonValue::Parse(text)),
              text);
  } catch (const std::runtime_error&) {
    // typed rejection of a malformed request
  } catch (const std::exception& e) {
    Die("query request threw an untyped error", e.what());
  }
  try {
    CheckSpec(causumx::MonitorSpec::Parse(text).explain, text);
  } catch (const std::runtime_error&) {
    // typed rejection of a malformed monitor spec
  } catch (const std::exception& e) {
    Die("monitor spec threw an untyped error", e.what());
  }
  return 0;
}
