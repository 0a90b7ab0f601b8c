#include "service/batch.h"

#include <cmath>
#include <fstream>
#include <future>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/json_export.h"
#include "service/stats_json.h"
#include "storage/storage_error.h"
#include "util/json.h"
#include "util/string_utils.h"
#include "util/timer.h"

namespace causumx {

namespace {

// Coerces a JSON array-of-arrays into schema-ordered append rows:
// numbers into numeric columns, strings into categorical ones, null
// anywhere. Type mismatches throw (Table::AppendRows re-validates).
std::vector<std::vector<Value>> ParseJsonRows(const JsonValue& rows_json,
                                              const Table& schema) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(rows_json.AsArray().size());
  for (const JsonValue& row_json : rows_json.AsArray()) {
    const std::vector<JsonValue>& cells = row_json.AsArray();
    if (cells.size() != schema.NumColumns()) {
      throw std::runtime_error(StrFormat(
          "append row %zu has %zu cells, table has %zu columns",
          rows.size() + 1, cells.size(), schema.NumColumns()));
    }
    std::vector<Value> row(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      const JsonValue& cell = cells[c];
      if (cell.is_null()) continue;
      switch (schema.column(c).type()) {
        case ColumnType::kInt64: {
          // Match the CSV delta path's strictness: reject fractional
          // values instead of truncating, and bound to the +-2^53 range
          // where doubles hold integers exactly (JSON numbers arrive as
          // double, so anything larger has already lost digits; the cast
          // is also UB past int64 range).
          const double d = cell.AsNumber();
          if (d != std::floor(d) || d < -9007199254740992.0 ||
              d > 9007199254740992.0) {
            throw std::runtime_error(StrFormat(
                "append row %zu column '%s': %g is not an exactly "
                "representable integer",
                rows.size() + 1, schema.column(c).name().c_str(), d));
          }
          row[c] = Value(static_cast<int64_t>(d));
          break;
        }
        case ColumnType::kDouble:
          row[c] = Value(cell.AsNumber());
          break;
        case ColumnType::kCategorical:
          row[c] = Value(cell.AsString());
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

RequestResult ErrorLine(const std::string& id, const std::string& what) {
  JsonWriter w;
  w.BeginObject()
      .Key("id").String(id)
      .Key("ok").Bool(false)
      .Key("error").String(what)
      .EndObject();
  return RequestResult{false, w.str()};
}

// `parsed` carries the line's pre-parsed JSON when RunBatch already has
// it (it peeks at every line for the append barrier); null re-parses —
// and surfaces the parse error — here.
RequestResult ExecuteRequest(ExplanationService& service,
                             const std::string& line,
                             std::shared_ptr<const JsonValue> parsed,
                             size_t line_number,
                             const BatchOptions& options) {
  std::string id = StrFormat("%zu", line_number);
  try {
    if (parsed == nullptr) {
      parsed = std::make_shared<const JsonValue>(JsonValue::Parse(line));
    }
    const JsonValue& request = *parsed;
    id = request.GetString("id", id);

    const std::string op = request.GetString("op", "query");
    if (op == "append") {
      return ExecuteAppendRequest(service, request, "", id, options);
    }
    if (op != "query") throw std::runtime_error("unknown op \"" + op + "\"");
    return ExecuteQueryRequest(service, ParseQueryRequest(request), id,
                               options);
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
}

}  // namespace

ExplainSpec ParseQueryRequest(const JsonValue& request) {
  return ExplainSpec::Parse(request, {"id", "op"});
}

RequestResult ExecuteQueryRequest(ExplanationService& service,
                                  const ExplainSpec& spec,
                                  const std::string& id,
                                  const BatchOptions& options) {
  try {
    const std::string table_name = spec.TableName(options.default_table);
    std::shared_ptr<const Table> table;
    if (!spec.csv.empty()) {
      // Race-free: concurrent requests naming the same CSV share the
      // first registration instead of clobbering each other's caches.
      table = service.EnsureCsv(table_name, spec.csv);
    } else if (service.HasTable(table_name)) {
      table = service.GetTable(table_name);
    } else {
      throw std::runtime_error("unknown table '" + table_name +
                               "' and no \"csv\" to load");
    }

    const BoundExplain bound = spec.Bind(*table);

    Timer timer;
    const CauSumXResult run =
        service.Explain(table_name, bound.query, bound.dag, bound.config);
    const double elapsed_ms = timer.Seconds() * 1000.0;

    // "summary" stays the last member unless cache stats follow it.
    JsonWriter w;
    w.BeginObject()
        .Key("id").String(id)
        .Key("table").String(table_name)
        .Key("ok").Bool(true)
        .Key("elapsed_ms").Raw(JsonNumberToken(elapsed_ms, 3))
        .Key("summary").Raw(SummaryToJson(run.summary, &bound.query));
    if (options.emit_cache_stats) {
      w.Key("cache").BeginObject();
      WriteStatsMembers(w, run.cache_stats.eval);
      WriteStatsMembers(w, run.cache_stats.estimator);
      w.EndObject();
    }
    w.EndObject();
    return RequestResult{true, w.str()};
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
}

RequestResult ExecuteAppendRequest(ExplanationService& service,
                                   const JsonValue& request,
                                   const std::string& table_name,
                                   const std::string& default_id,
                                   const BatchOptions& options) {
  std::string id = default_id;
  try {
    id = request.GetString("id", id);

    std::string table = table_name;
    if (table.empty()) table = request.GetString("table");
    if (table.empty()) table = options.default_table;

    const std::string csv_path = request.GetString("csv");
    const JsonValue* rows_json = request.Find("rows");

    Timer timer;
    std::shared_ptr<const Table> grown;
    size_t rows_appended = 0;
    if (!csv_path.empty()) {
      grown = service.AppendCsv(table, csv_path, {}, &rows_appended);
    } else if (rows_json != nullptr) {
      const std::shared_ptr<const Table> schema = service.GetTable(table);
      const auto rows = ParseJsonRows(*rows_json, *schema);
      rows_appended = rows.size();
      // Pin to the schema the cells were coerced against (same race as
      // the CSV path: a concurrent re-registration must not get
      // stale-typed rows).
      grown = service.Append(table, rows, schema.get());
    } else {
      throw std::runtime_error("append needs \"csv\" or \"rows\"");
    }
    JsonWriter w;
    w.BeginObject()
        .Key("id").String(id)
        .Key("table").String(table)
        .Key("ok").Bool(true)
        .Key("op").String("append")
        .Key("rows_appended").Uint(rows_appended)
        .Key("rows_total").Uint(grown->NumRows())
        .Key("version").Uint(grown->version())
        .Key("elapsed_ms").Raw(JsonNumberToken(timer.Seconds() * 1000.0, 3))
        .EndObject();
    return RequestResult{true, w.str()};
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
}

BatchSummary RunBatch(ExplanationService& service, std::istream& in,
                      std::ostream& out, const BatchOptions& options) {
  // Collect the lines first, then fan out: requests run concurrently on
  // callers of the service pool via std::async-free futures, and results
  // stream back in input order. Append ops are barriers: all earlier
  // requests drain before the append lands (they query the pre-append
  // snapshot), and later requests see the grown table — the file reads
  // top-to-bottom like a stream of events.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    lines.push_back(line);
  }
  // EOF and a failed read both end the getline loop; only EOF means the
  // whole file was seen. A mid-stream failure must not silently run a
  // truncated batch.
  if (in.bad()) {
    throw StorageError(StorageErrorKind::kIo,
                       "batch: stream read failed mid-file (badbit set after "
                       "reading " +
                           std::to_string(lines.size()) + " lines)");
  }

  BatchSummary summary;
  summary.requests = lines.size();

  std::vector<std::future<RequestResult>> pending;
  auto emit = [&](RequestResult r) {
    out << r.json_line << "\n";
    out.flush();
    if (r.ok) {
      ++summary.succeeded;
    } else {
      ++summary.failed;
    }
  };
  auto drain = [&] {
    for (auto& f : pending) emit(f.get());
    pending.clear();
  };

  for (size_t i = 0; i < lines.size(); ++i) {
    // Parse once, up front: the barrier check needs the op field, and the
    // executor reuses the parsed value. A malformed line is not a
    // barrier; it fails inside ExecuteRequest like any other bad request.
    std::shared_ptr<const JsonValue> parsed;
    bool is_append = false;
    try {
      parsed = std::make_shared<const JsonValue>(JsonValue::Parse(lines[i]));
      is_append = parsed->GetString("op") == "append";
    } catch (...) {
      // Unparsable line or non-string "op": ExecuteRequest reports it.
    }
    if (is_append) {
      drain();
      emit(ExecuteRequest(service, lines[i], parsed, i + 1, options));
      continue;
    }
    auto task = std::make_shared<std::packaged_task<RequestResult()>>(
        [&service, &options, text = lines[i], parsed, i] {
          return ExecuteRequest(service, text, parsed, i + 1, options);
        });
    pending.push_back(task->get_future());
    service.pool().Submit([task] { (*task)(); });
  }
  drain();
  return summary;
}

BatchSummary RunBatchFile(ExplanationService& service,
                          const std::string& path, std::ostream& out,
                          const BatchOptions& options) {
  if (path == "-") return RunBatch(service, std::cin, out, options);
  std::ifstream f(path);
  if (!f) throw std::runtime_error("batch: cannot open " + path);
  return RunBatch(service, f, out, options);
}

}  // namespace causumx
