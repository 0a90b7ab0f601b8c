// The REST surface of the ExplanationService: a routing Handler for
// server/http_server.h that exposes explanation queries, streaming
// appends, batch execution, and engine statistics over HTTP. See
// docs/API.md for the endpoint reference with curl examples.
//
// Endpoints:
//   GET  /healthz                    liveness probe, {"status":"ok"}
//   GET  /v1/stats                   service/cache/shard counters + tables
//   GET  /v1/tables                  registered tables (name/rows/version)
//   POST /v1/explain                 one query; body = a batch request
//                                    object (service/batch.h), response =
//                                    the same JSON line batch mode emits
//   POST /v1/tables/{name}/append    delta rows ({"rows": [[...]]} or
//                                    {"csv": "path"}) with the service's
//                                    copy-on-write snapshot semantics
//   POST /v1/batch                   JSONL body executed exactly like
//                                    `causumx --batch` (appends are
//                                    barriers); responds JSONL
//
// With a MonitorRegistry attached (the second overload), the windowed
// continuous-monitoring surface of src/stream/ is also mounted:
//   POST   /v1/monitors              create a monitor from a spec body;
//                                    201 with {"id", "status"}
//   GET    /v1/monitors              statuses of all monitors
//   GET    /v1/monitors/{id}         one monitor's status + spec
//   DELETE /v1/monitors/{id}         unregister (the window state drops)
//   GET    /v1/monitors/{id}/events  drift/summary events with seq >
//                                    ?since=N; ?timeout_ms=M long-polls
//                                    until an event arrives (capped)
//
// Error contract: every non-2xx response is JSON — 400 for malformed
// bodies/parameters, 404 for unknown routes and unregistered tables,
// 405 for wrong methods, 413/431/503 from the transport layer. Explain
// and append responses funnel through the shared batch executor, so a
// query answered here is bit-identical to the same request in a batch
// file (and to the CLI's --json output for that query).

#ifndef CAUSUMX_SERVER_REST_API_H_
#define CAUSUMX_SERVER_REST_API_H_

#include <string>

#include "server/http_server.h"
#include "service/explanation_service.h"

namespace causumx {

/// Forward declaration (src/stream/monitor.h): the windowed-monitor
/// registry the two-argument MakeRestHandler overload mounts.
class MonitorRegistry;

/// Behavior knobs of the REST surface.
struct RestApiOptions {
  /// Table used by explain/batch requests that name none.
  std::string default_table = "default";
  /// Hard cap on ?timeout_ms= for the events long-poll; larger requests
  /// are clamped (a worker thread is parked for the duration).
  int64_t max_event_poll_ms = 30000;
};

/// Builds the routing handler over `service`. The service must outlive
/// the returned handler (and the HttpServer it is mounted on); the
/// handler is thread-safe because the service is.
HttpServer::Handler MakeRestHandler(ExplanationService& service,
                                    RestApiOptions options = {});

/// Same handler with the /v1/monitors surface mounted over `monitors`
/// (which must be bound to `service` and outlive the handler).
HttpServer::Handler MakeRestHandler(ExplanationService& service,
                                    MonitorRegistry& monitors,
                                    RestApiOptions options = {});

}  // namespace causumx

#endif  // CAUSUMX_SERVER_REST_API_H_
