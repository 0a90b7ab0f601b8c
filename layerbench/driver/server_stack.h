// The in-process serving stack of the HTTP workloads: an
// ExplanationService, optionally a MonitorRegistry with one append
// observer registered before it and one after it, and an HttpServer over
// MakeRestHandler whose handler is wrapped to time each call. All hooks
// use the modules' public interfaces only.

#ifndef LAYERBENCH_DRIVER_SERVER_STACK_H_
#define LAYERBENCH_DRIVER_SERVER_STACK_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "bench.h"
#include "server/http.h"
#include "server/http_server.h"
#include "service/explanation_service.h"
#include "stream/monitor.h"

namespace layerbench {

/// Times taken inside one handler call (ms on the NowMs clock). The
/// observer marks stay 0 unless the call landed an append.
struct HandlerMarks {
  double start = 0;
  double before_monitors = 0;  ///< append observer registered first
  double after_monitors = 0;   ///< append observer registered last
  double end = 0;
};

class ServerStack {
 public:
  ServerStack(causumx::ServiceOptions options, bool with_monitors);
  ~ServerStack();

  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  causumx::ExplanationService& service() { return *service_; }
  causumx::MonitorRegistry* monitors() { return monitors_.get(); }
  uint16_t port() const { return server_->port(); }
  causumx::HttpServerCounters counters() const { return server_->counters(); }

  /// While on, every handler call records its marks under the request
  /// body's "id".
  void set_tracing(bool on) { tracing_.store(on); }
  /// Removes and returns the marks of request `id`; false when none.
  bool TakeMarks(const std::string& id, HandlerMarks* out);

 private:
  // Declared in construction order; destroyed server first.
  std::unique_ptr<causumx::ExplanationService> service_;
  std::unique_ptr<causumx::MonitorRegistry> monitors_;
  std::unique_ptr<causumx::HttpServer> server_;
  std::atomic<bool> tracing_{false};
  std::mutex mu_;
  std::map<std::string, HandlerMarks> marks_;
};

/// One client-side HTTP call.
struct HttpOp {
  int status = 0;  ///< 0 = transport error
  std::string body;
  double start_ms = 0;
  double end_ms = 0;
  double latency_ms() const { return end_ms - start_ms; }
  bool ok() const { return status >= 200 && status < 300; }
};

HttpOp Call(causumx::HttpClient& client, const std::string& method,
            const std::string& target, const std::string& body = "");

/// Records the spans of one traced HTTP op: the client span (root), the
/// handler span, and the handler's children — the service time an
/// explain response reports, or the append's observer-delimited
/// segments. Returns false when the handler left no marks.
bool RecordHttpSpans(SpanLog* spans, ServerStack* stack,
                     const std::string& id, bool is_append, const HttpOp& op,
                     HandlerMarks* marks);

}  // namespace layerbench

#endif  // LAYERBENCH_DRIVER_SERVER_STACK_H_
