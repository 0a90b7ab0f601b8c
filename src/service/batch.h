// JSONL batch execution over an ExplanationService.
//
// Each input line is one JSON request object; each output line is one
// JSON result object (input order preserved; requests execute
// concurrently on the service pool). A query line is an ExplainSpec
// request (field reference in service/explain_spec.h) plus an optional
// "id", echoed back (default: the line number):
//
//   {"id": "q1", "table": "sales", "group_by": ["Country"],
//    "avg": "Salary", "dag": "graph.txt", "k": 5}
//
// The same request shape is served over HTTP by POST /v1/explain
// (server/rest_api.h), which funnels into the same executor — a query
// answered over the network is bit-identical to the same line in a
// batch file and to the CLI's --json output.
//
// Row sharding is a property of the registered table, not of one
// request: each table's engine plans one row shard per service-pool
// worker at registration, and every batch query executes through it.
//
// Streaming ingestion rides the same file via an "op" field:
//
//   {"op": "append", "table": "sales", "csv": "delta.csv"}
//   {"op": "append", "table": "sales",
//    "rows": [["US", 12, 3.5], [null, 7, 1.0]]}   // schema order
//
// appends delta rows to a registered table (cells coerce to the column
// types; null is null). An append line is a barrier: every earlier
// request finishes before it lands, and every later request sees the
// grown table — so "query, append, re-query" reads top-to-bottom.
//
// Result lines: {"id", "table", "ok", "elapsed_ms", "summary"} on
// success ({"rows_appended", "rows_total", "version"} for appends),
// {"id", "ok": false, "error"} on failure. A malformed line fails that
// request only; the batch keeps going.

#ifndef CAUSUMX_SERVICE_BATCH_H_
#define CAUSUMX_SERVICE_BATCH_H_

#include <iosfwd>
#include <string>

#include "service/explain_spec.h"
#include "service/explanation_service.h"
#include "util/json.h"

namespace causumx {

/// Execution knobs shared by RunBatch and the REST endpoints that
/// funnel into the same executor.
struct BatchOptions {
  /// Table used by requests that name neither "table" nor "csv".
  std::string default_table = "default";
  /// Echo engine/estimator cache counters into each result line.
  bool emit_cache_stats = false;
};

/// Aggregate outcome of one batch run.
struct BatchSummary {
  size_t requests = 0;   ///< non-empty input lines executed
  size_t succeeded = 0;  ///< result lines with "ok": true
  size_t failed = 0;     ///< result lines with "ok": false
};

/// Outcome of one executed request: `json_line` is the complete JSON
/// result document (one batch output line / one HTTP response body) and
/// `ok` mirrors its "ok" field.
struct RequestResult {
  bool ok = false;         ///< mirrors the result's "ok" field
  std::string json_line;   ///< the complete JSON result document
};

/// Parses a query request line: an ExplainSpec plus the executor's own
/// "id" and "op" members. Throws std::runtime_error naming the field at
/// fault.
ExplainSpec ParseQueryRequest(const JsonValue& request);

/// Executes one parsed query request against the service, echoing `id`.
/// The query mines on the service pool, like every service query. Never
/// throws: every failure — unknown
/// table, bad where/DAG, a mining error — is reported as
/// {"id", "ok": false, "error"}. Shared by RunBatch and POST
/// /v1/explain, which is what keeps network answers bit-identical to
/// batch/CLI output.
RequestResult ExecuteQueryRequest(ExplanationService& service,
                                  const ExplainSpec& spec,
                                  const std::string& id,
                                  const BatchOptions& options = {});

/// Executes one append request ({"csv": path} or {"rows": [[...]]})
/// against table `table_name` (empty = the request's "table" field,
/// falling back to options.default_table). Same never-throws error
/// contract as ExecuteQueryRequest. Shared by the batch "op": "append"
/// lines and POST /v1/tables/{name}/append.
RequestResult ExecuteAppendRequest(ExplanationService& service,
                                   const JsonValue& request,
                                   const std::string& table_name,
                                   const std::string& default_id,
                                   const BatchOptions& options = {});

/// Executes every JSONL request from `in` against the service, streaming
/// one JSON result line per request to `out` in input order.
BatchSummary RunBatch(ExplanationService& service, std::istream& in,
                      std::ostream& out, const BatchOptions& options = {});

/// As RunBatch over a file path ("-" = stdin).
BatchSummary RunBatchFile(ExplanationService& service,
                          const std::string& path, std::ostream& out,
                          const BatchOptions& options = {});

}  // namespace causumx

#endif  // CAUSUMX_SERVICE_BATCH_H_
