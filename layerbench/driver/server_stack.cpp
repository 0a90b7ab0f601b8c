#include "server_stack.h"

#include <cmath>

#include "server/rest_api.h"

namespace layerbench {

namespace {

// The marks of the handler call running on this thread. Append observers
// run synchronously on the thread that landed the append, which is the
// handler's worker thread.
thread_local HandlerMarks* tl_marks = nullptr;

}  // namespace

ServerStack::ServerStack(causumx::ServiceOptions options, bool with_monitors)
    : service_(std::make_unique<causumx::ExplanationService>(
          std::move(options))) {
  causumx::HttpServer::Handler rest;
  if (with_monitors) {
    service_->AddAppendObserver(
        [](const std::string&, const std::vector<std::vector<causumx::Value>>&,
           const std::shared_ptr<const causumx::Table>&) {
          if (tl_marks != nullptr) tl_marks->before_monitors = NowMs();
        });
    monitors_ = std::make_unique<causumx::MonitorRegistry>(*service_);
    service_->AddAppendObserver(
        [](const std::string&, const std::vector<std::vector<causumx::Value>>&,
           const std::shared_ptr<const causumx::Table>&) {
          if (tl_marks != nullptr) tl_marks->after_monitors = NowMs();
        });
    rest = causumx::MakeRestHandler(*service_, *monitors_);
  } else {
    rest = causumx::MakeRestHandler(*service_);
  }
  auto handler = [this, rest](const causumx::HttpRequest& req) {
    if (!tracing_.load()) return rest(req);
    HandlerMarks marks;
    marks.start = NowMs();
    tl_marks = &marks;
    causumx::HttpResponse resp;
    try {
      resp = rest(req);
    } catch (...) {
      tl_marks = nullptr;
      throw;
    }
    tl_marks = nullptr;
    marks.end = NowMs();
    const std::string id = ExtractId(req.body);
    if (!id.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      marks_[id] = marks;
    }
    return resp;
  };
  causumx::HttpServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_ = std::make_unique<causumx::HttpServer>(handler, server_options);
  server_->Start();
}

ServerStack::~ServerStack() { server_->Stop(); }

bool ServerStack::TakeMarks(const std::string& id, HandlerMarks* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = marks_.find(id);
  if (it == marks_.end()) return false;
  *out = it->second;
  marks_.erase(it);
  return true;
}

HttpOp Call(causumx::HttpClient& client, const std::string& method,
            const std::string& target, const std::string& body) {
  HttpOp op;
  op.start_ms = NowMs();
  try {
    causumx::HttpClient::Response r = client.Request(method, target, body);
    op.status = r.status;
    op.body = std::move(r.body);
  } catch (const std::exception& e) {
    op.status = 0;
    op.body = e.what();
    client.Close();
  }
  op.end_ms = NowMs();
  return op;
}

bool RecordHttpSpans(SpanLog* spans, ServerStack* stack,
                     const std::string& id, bool is_append, const HttpOp& op,
                     HandlerMarks* marks) {
  const int64_t root =
      spans->Add(is_append ? "client.append" : "client.explain", "client",
                 op.start_ms, op.end_ms, 0, id);
  if (!stack->TakeMarks(id, marks)) return false;
  const int64_t handler = spans->Add("server.handler", "server", marks->start,
                                     marks->end, root, id);
  if (!is_append) {
    // The response's elapsed_ms is ExplanationService::Explain's own
    // duration; it ends just before the response is serialized.
    const double service_ms = ExtractNumber(op.body, "elapsed_ms");
    if (std::isfinite(service_ms)) {
      spans->Add("service.explain", "service", marks->end - service_ms,
                 marks->end, handler, id);
    }
    return true;
  }
  if (marks->before_monitors > 0 && marks->after_monitors > 0) {
    spans->Add("service.append_extend", "service", marks->start,
               marks->before_monitors, handler, id);
    spans->Add("stream.monitors", "stream", marks->before_monitors,
               marks->after_monitors, handler, id);
    spans->Add("storage.snapshot", "storage", marks->after_monitors,
               marks->end, handler, id);
  }
  return true;
}

}  // namespace layerbench
