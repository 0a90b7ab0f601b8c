#include "server/rest_api.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "service/batch.h"
#include "service/stats_json.h"
#include "stream/monitor.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace causumx {

namespace {

HttpResponse HandleHealthz() {
  return HttpResponse::Json(200, "{\"status\":\"ok\"}");
}

// `monitors` is null when the monitor surface is not mounted; the
// "monitors" object is then omitted.
HttpResponse HandleStats(ExplanationService& service,
                         const MonitorRegistry* monitors) {
  const ServiceStats s = service.Stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("service").BeginObject()
      .Key("queries_executed").Uint(s.queries_executed)
      .Key("tables_registered").Uint(s.tables_registered)
      .Key("appends_executed").Uint(s.appends_executed)
      .Key("rows_appended").Uint(s.rows_appended)
      .Key("budget_enforcements").Uint(s.budget_enforcements)
      .Key("cache_bytes").Uint(s.cache_bytes)
      .Key("candidate_hits").Uint(s.candidate_hits)
      .Key("candidate_misses").Uint(s.candidate_misses)
      .Key("candidate_bytes").Uint(s.candidate_bytes)
      .Key("append_observer_failures").Uint(s.append_observer_failures)
      .EndObject();
  w.Key("snapshots").BeginObject()
      .Key("enabled").Bool(!service.options().data_dir.empty())
      .Key("written").Uint(s.snapshots_written)
      .Key("restored").Uint(s.snapshots_restored)
      .Key("rejected").Uint(s.snapshots_rejected)
      .Key("write_failures").Uint(s.snapshot_write_failures);
  // Age of the newest snapshot written by this process; null before the
  // first write (or with persistence off).
  if (s.last_snapshot_unix_ms > 0) {
    const uint64_t now_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    const uint64_t age_ms =
        now_ms > s.last_snapshot_unix_ms ? now_ms - s.last_snapshot_unix_ms
                                         : 0;
    w.Key("last_written_age_seconds").Double(age_ms / 1000.0);
  } else {
    w.Key("last_written_age_seconds").Null();
  }
  w.EndObject();
  if (monitors != nullptr) {
    const MonitorRegistryStats m = monitors->Stats();
    w.Key("monitors").BeginObject()
        .Key("skipped_on_restore").Uint(m.skipped_on_restore)
        .EndObject();
  }
  w.Key("options").BeginObject()
      .Key("num_threads").Uint(service.pool().NumThreads())
      .Key("memory_budget_bytes").Uint(service.options().memory_budget_bytes)
      .EndObject();
  w.Key("tables").BeginArray();
  for (const TableDescription& d : service.DescribeTables()) {
    w.BeginObject()
        .Key("name").String(d.name)
        .Key("rows").Uint(d.rows)
        .Key("columns").Uint(d.columns)
        .Key("version").Uint(d.version);
    w.Key("engine").BeginObject();
    WriteStatsMembers(w, d.engine);
    w.EndObject().Key("estimator").BeginObject();
    WriteStatsMembers(w, d.estimator);
    w.EndObject().EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(200, w.str());
}

HttpResponse HandleTables(ExplanationService& service) {
  JsonWriter w;
  w.BeginArray();
  for (const TableDescription& d : service.DescribeTables()) {
    w.BeginObject()
        .Key("name").String(d.name)
        .Key("rows").Uint(d.rows)
        .Key("columns").Uint(d.columns)
        .Key("version").Uint(d.version)
        .EndObject();
  }
  w.EndArray();
  return HttpResponse::Json(200, w.str());
}

HttpResponse HandleExplain(ExplanationService& service,
                           const HttpRequest& http_request,
                           const BatchOptions& batch_options) {
  std::string id = "1";
  ExplainSpec spec;
  try {
    const JsonValue request = JsonValue::Parse(http_request.body);
    const std::string op = request.GetString("op", "query");
    if (op != "query") {
      return HttpResponse::Error(
          400, "POST /v1/explain only runs queries; use "
               "/v1/tables/{name}/append or /v1/batch for op \"" + op + "\"");
    }
    id = request.GetString("id", id);
    spec = ParseQueryRequest(request);
  } catch (const std::exception& e) {
    return HttpResponse::Error(400, e.what());
  }

  // Typed 404 before execution: a query naming an unregistered table
  // (with no "csv" to load it from) can never succeed.
  const std::string table = spec.TableName(batch_options.default_table);
  if (spec.csv.empty() && !service.HasTable(table)) {
    return HttpResponse::Error(404, "unknown table '" + table + "'");
  }

  const RequestResult result =
      ExecuteQueryRequest(service, spec, id, batch_options);
  return HttpResponse::Json(result.ok ? 200 : 400, result.json_line);
}

HttpResponse HandleAppend(ExplanationService& service,
                          const std::string& table,
                          const HttpRequest& http_request,
                          const BatchOptions& batch_options) {
  if (!service.HasTable(table)) {
    return HttpResponse::Error(404, "unknown table '" + table + "'");
  }
  std::shared_ptr<const JsonValue> request;
  try {
    request = std::make_shared<const JsonValue>(
        JsonValue::Parse(http_request.body));
  } catch (const std::exception& e) {
    return HttpResponse::Error(400, e.what());
  }
  const std::string body_table = request->GetString("table");
  if (!body_table.empty() && body_table != table) {
    return HttpResponse::Error(
        400, "body names table '" + body_table + "' but the URL names '" +
                 table + "'");
  }
  const RequestResult result =
      ExecuteAppendRequest(service, *request, table, "1", batch_options);
  return HttpResponse::Json(result.ok ? 200 : 400, result.json_line);
}

HttpResponse HandleBatch(ExplanationService& service,
                         const HttpRequest& http_request,
                         const BatchOptions& batch_options) {
  if (Trim(http_request.body).empty()) {
    return HttpResponse::Error(400, "empty batch body; send JSONL requests");
  }
  std::istringstream in(http_request.body);
  std::ostringstream out;
  RunBatch(service, in, out, batch_options);
  HttpResponse response = HttpResponse::Json(200, out.str());
  response.content_type = "application/x-ndjson";
  return response;
}

void WriteMonitorStatus(JsonWriter& w, const MonitorStatus& s) {
  w.BeginObject()
      .Key("id").String(s.id)
      .Key("table").String(s.table)
      .Key("rows_observed").Uint(s.rows_observed)
      .Key("windows_evaluated").Uint(s.windows_evaluated)
      .Key("last_seq").Uint(s.last_seq)
      .Key("window_rows").Uint(s.window_rows)
      .Key("events_buffered").Uint(s.events_buffered)
      .Key("cache_bytes").Uint(s.cache_bytes)
      .EndObject();
}

HttpResponse HandleMonitorCreate(MonitorRegistry& monitors,
                                 const HttpRequest& request) {
  std::shared_ptr<StreamMonitor> monitor;
  try {
    monitor = monitors.Create(request.body);
  } catch (const std::out_of_range&) {
    return HttpResponse::Error(404, "spec names an unregistered table");
  } catch (const std::exception& e) {
    return HttpResponse::Error(400, e.what());
  }
  JsonWriter w;
  w.BeginObject().Key("id").String(monitor->id()).Key("status");
  WriteMonitorStatus(w, monitor->Status());
  w.EndObject();
  return HttpResponse::Json(201, w.str());
}

HttpResponse HandleMonitorsList(MonitorRegistry& monitors) {
  JsonWriter w;
  w.BeginArray();
  for (const auto& monitor : monitors.List()) {
    WriteMonitorStatus(w, monitor->Status());
  }
  w.EndArray();
  return HttpResponse::Json(200, w.str());
}

HttpResponse HandleMonitorGet(MonitorRegistry& monitors,
                              const std::string& id) {
  const std::shared_ptr<StreamMonitor> monitor = monitors.Get(id);
  if (monitor == nullptr) {
    return HttpResponse::Error(404, "unknown monitor '" + id + "'");
  }
  JsonWriter w;
  w.BeginObject().Key("status");
  WriteMonitorStatus(w, monitor->Status());
  w.Key("spec").Raw(monitor->spec_json());
  w.EndObject();
  return HttpResponse::Json(200, w.str());
}

HttpResponse HandleMonitorDelete(MonitorRegistry& monitors,
                                 const std::string& id) {
  if (!monitors.Remove(id)) {
    return HttpResponse::Error(404, "unknown monitor '" + id + "'");
  }
  return HttpResponse::Json(200, "{\"ok\":true}");
}

// Query parameter as a non-negative integer; `fallback` when absent,
// -1 when present but malformed.
int64_t QueryUint(const HttpRequest& request, const std::string& name,
                  int64_t fallback) {
  auto it = request.query.find(name);
  if (it == request.query.end()) return fallback;
  try {
    size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size() || v < 0) return -1;
    return v;
  } catch (const std::exception&) {
    return -1;
  }
}

HttpResponse HandleMonitorEvents(MonitorRegistry& monitors,
                                 const std::string& id,
                                 const HttpRequest& request,
                                 int64_t max_poll_ms) {
  const std::shared_ptr<StreamMonitor> monitor = monitors.Get(id);
  if (monitor == nullptr) {
    return HttpResponse::Error(404, "unknown monitor '" + id + "'");
  }
  const int64_t since = QueryUint(request, "since", 0);
  const int64_t timeout_ms = QueryUint(request, "timeout_ms", 0);
  if (since < 0 || timeout_ms < 0) {
    return HttpResponse::Error(
        400, "\"since\" and \"timeout_ms\" must be non-negative integers");
  }
  const std::vector<MonitorEvent> events =
      timeout_ms == 0
          ? monitor->EventsSince(static_cast<uint64_t>(since))
          : monitor->WaitEventsSince(static_cast<uint64_t>(since),
                                     std::min<int64_t>(timeout_ms,
                                                       max_poll_ms));
  uint64_t next_since = static_cast<uint64_t>(since);
  JsonWriter w;
  w.BeginObject().Key("monitor").String(id).Key("events").BeginArray();
  for (const MonitorEvent& e : events) {
    w.Raw(e.json);
    next_since = e.seq;
  }
  w.EndArray().Key("next_since").Uint(next_since).EndObject();
  return HttpResponse::Json(200, w.str());
}

// The shared routing core; `monitors` is null when the monitor surface
// is not mounted (the single-argument MakeRestHandler overload).
HttpServer::Handler MakeHandler(ExplanationService& service,
                                MonitorRegistry* monitors,
                                RestApiOptions options) {
  BatchOptions batch_options;
  batch_options.default_table = options.default_table;
  const int64_t max_poll_ms = options.max_event_poll_ms;

  return [&service, monitors, batch_options,
          max_poll_ms](const HttpRequest& request) {
    const std::string& path = request.path;
    const bool get = request.method == "GET";
    const bool post = request.method == "POST";

    if (path == "/healthz") {
      if (!get) return HttpResponse::Error(405, "use GET " + path);
      return HandleHealthz();
    }
    if (path == "/v1/stats") {
      if (!get) return HttpResponse::Error(405, "use GET " + path);
      return HandleStats(service, monitors);
    }
    if (path == "/v1/tables") {
      if (!get) return HttpResponse::Error(405, "use GET " + path);
      return HandleTables(service);
    }
    if (path == "/v1/explain") {
      if (!post) return HttpResponse::Error(405, "use POST " + path);
      return HandleExplain(service, request, batch_options);
    }
    if (path == "/v1/batch") {
      if (!post) return HttpResponse::Error(405, "use POST " + path);
      return HandleBatch(service, request, batch_options);
    }
    if (monitors != nullptr && path == "/v1/monitors") {
      if (post) return HandleMonitorCreate(*monitors, request);
      if (get) return HandleMonitorsList(*monitors);
      return HttpResponse::Error(405, "use GET or POST " + path);
    }
    // /v1/monitors/{id} and /v1/monitors/{id}/events
    static const std::string kMonitorsPrefix = "/v1/monitors/";
    if (monitors != nullptr && path.size() > kMonitorsPrefix.size() &&
        path.compare(0, kMonitorsPrefix.size(), kMonitorsPrefix) == 0) {
      std::string id = path.substr(kMonitorsPrefix.size());
      const size_t slash = id.find('/');
      const bool events = slash != std::string::npos &&
                          id.substr(slash + 1) == "events";
      if (slash == std::string::npos || events) {
        if (events) id = id.substr(0, slash);
        if (id.empty()) {
          return HttpResponse::Error(404, "missing monitor id in " + path);
        }
        if (events) {
          if (!get) return HttpResponse::Error(405, "use GET " + path);
          return HandleMonitorEvents(*monitors, id, request, max_poll_ms);
        }
        if (get) return HandleMonitorGet(*monitors, id);
        if (request.method == "DELETE") {
          return HandleMonitorDelete(*monitors, id);
        }
        return HttpResponse::Error(405, "use GET or DELETE " + path);
      }
    }
    // /v1/tables/{name}/append
    static const std::string kTablesPrefix = "/v1/tables/";
    if (path.size() > kTablesPrefix.size() &&
        path.compare(0, kTablesPrefix.size(), kTablesPrefix) == 0) {
      const std::string rest = path.substr(kTablesPrefix.size());
      const size_t slash = rest.rfind('/');
      if (slash != std::string::npos && rest.substr(slash + 1) == "append") {
        const std::string table = rest.substr(0, slash);
        if (table.empty()) {
          return HttpResponse::Error(404, "missing table name in " + path);
        }
        if (!post) return HttpResponse::Error(405, "use POST " + path);
        return HandleAppend(service, table, request, batch_options);
      }
    }
    return HttpResponse::Error(
        404, "no route for " + request.method + " " + path);
  };
}

}  // namespace

HttpServer::Handler MakeRestHandler(ExplanationService& service,
                                    RestApiOptions options) {
  return MakeHandler(service, nullptr, std::move(options));
}

HttpServer::Handler MakeRestHandler(ExplanationService& service,
                                    MonitorRegistry& monitors,
                                    RestApiOptions options) {
  return MakeHandler(service, &monitors, std::move(options));
}

}  // namespace causumx
