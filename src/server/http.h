// HTTP/1.1 message framing, dependency-free: an incremental request
// parser, a response serializer, and a minimal blocking client used by
// the tests and causumx_bench's server gate. Transport (sockets, accept
// loop, worker dispatch) lives in server/http_server.h; this file knows
// nothing about file descriptors except for the client helper.
//
// Supported subset: request line + headers + Content-Length bodies.
// Transfer-Encoding (chunked uploads) is rejected with 501, header
// blocks over the cap with 431, bodies over the configured cap with 413
// — each as a typed parse error the server turns into a JSON error
// response. Keep-alive follows HTTP/1.1 defaults (persistent unless
// "Connection: close"; HTTP/1.0 requires an explicit keep-alive).

#ifndef CAUSUMX_SERVER_HTTP_H_
#define CAUSUMX_SERVER_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace causumx {

/// One parsed HTTP request. Header names are lower-cased; the target is
/// split into a percent-decoded `path` and decoded `query` parameters.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (upper-case as sent)
  std::string target;   ///< raw request target, e.g. "/v1/stats?pretty=1"
  std::string path;     ///< decoded path component, e.g. "/v1/stats"
  std::map<std::string, std::string> query;    ///< decoded query params
  std::map<std::string, std::string> headers;  ///< names lower-cased
  std::string body;        ///< exactly Content-Length bytes
  bool keep_alive = true;  ///< connection persistence after the response

  /// Header value by lower-case name ("" when absent).
  std::string Header(const std::string& name) const;
};

/// One response to serialize. Content-Length and Connection headers are
/// emitted by Serialize; everything else comes from `headers`.
struct HttpResponse {
  int status = 200;        ///< HTTP status code
  std::string content_type = "application/json";  ///< "" omits the header
  std::map<std::string, std::string> headers;  ///< extra headers, verbatim
  std::string body;        ///< response payload

  /// A JSON response with the given status.
  static HttpResponse Json(int status, std::string body);

  /// A uniform JSON error body:
  ///   {"ok":false,"status":<status>,"error":"<message>"}
  static HttpResponse Error(int status, const std::string& message);

  /// Serializes status line + headers + body; `keep_alive` picks the
  /// Connection header.
  std::string Serialize(bool keep_alive) const;
};

/// Canonical reason phrase for a status code ("Unknown" for others).
const char* HttpStatusReason(int status);

/// Incremental HTTP/1.1 request parser. Feed raw bytes as they arrive;
/// the parser buffers across Consume calls, so a request split at any
/// byte boundary parses identically (tested byte-by-byte).
class HttpRequestParser {
 public:
  /// `max_body_bytes` caps the declared Content-Length (413 past it);
  /// `max_header_bytes` caps the request line + header block (431).
  explicit HttpRequestParser(size_t max_body_bytes,
                             size_t max_header_bytes = 64 * 1024);

  /// Parse progress after the last Consume call.
  enum class State {
    kNeedMore,  ///< incomplete; feed more bytes
    kDone,      ///< request() is complete
    kError      ///< malformed; error_status()/error() describe it
  };

  /// Consumes `n` bytes; returns the parser state afterwards. Bytes past
  /// the end of the current request are retained for the next one
  /// (pipelining) — call Reset() after handling a kDone request.
  State Consume(const char* data, size_t n);

  /// Current state without consuming anything.
  State state() const { return state_; }

  /// The parsed request; valid when state() == kDone.
  const HttpRequest& request() const { return request_; }

  /// Suggested response status for a kError state (400/413/431/501/505).
  int error_status() const { return error_status_; }
  /// Human-readable parse error for the JSON error body.
  const std::string& error() const { return error_; }

  /// True exactly once when the headers carried `Expect: 100-continue`
  /// and the body is still outstanding: the caller should write an
  /// interim `100 Continue` response so the client sends the body.
  bool TakeExpectContinue();

  /// Discards the completed request and starts parsing the next one from
  /// any bytes already buffered past it (keep-alive / pipelining).
  void Reset();

  /// Whether buffered bytes from a pipelined next request are pending.
  bool HasBufferedData() const { return !buffer_.empty(); }

 private:
  State Fail(int status, const std::string& what);
  State TryParse();
  bool ParseHeaderBlock(size_t header_end);

  size_t max_body_bytes_;
  size_t max_header_bytes_;
  std::string buffer_;
  HttpRequest request_;
  State state_ = State::kNeedMore;
  bool headers_done_ = false;
  bool expect_continue_ = false;
  size_t body_expected_ = 0;
  int error_status_ = 0;
  std::string error_;
};

/// Percent-decodes a URL component ('+' becomes a space in `query_mode`);
/// malformed escapes are kept verbatim.
std::string UrlDecode(const std::string& s, bool query_mode = false);

/// A minimal blocking HTTP/1.1 client over one TCP connection, for the
/// server tests and causumx_bench's server gate. Connections persist
/// across Request calls (keep-alive) until the server closes or Close()
/// is called.
class HttpClient {
 public:
  /// Connects lazily on the first Request.
  HttpClient(std::string host, uint16_t port);
  /// Closes the connection if still open.
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// A parsed response (headers lower-cased).
  struct Response {
    int status = 0;  ///< HTTP status code from the status line
    std::map<std::string, std::string> headers;  ///< names lower-cased
    std::string body;  ///< exactly Content-Length bytes
  };

  /// Sends one request and blocks for the response; throws
  /// std::runtime_error on connect/transport failure. An empty
  /// `content_type` omits the header.
  Response Request(const std::string& method, const std::string& target,
                   const std::string& body = "",
                   const std::string& content_type = "application/json");

  /// Sends raw bytes verbatim and reads one response — for tests that
  /// need malformed or hand-rolled framing.
  Response Raw(const std::string& bytes);

  /// Whether the underlying connection is currently open (reused by the
  /// next Request). The keep-alive test asserts reuse through this.
  bool connected() const { return fd_ >= 0; }

  /// Closes the connection; the next Request reconnects.
  void Close();

 private:
  void EnsureConnected();
  Response ReadResponse();

  std::string host_;
  uint16_t port_;
  int fd_ = -1;
};

}  // namespace causumx

#endif  // CAUSUMX_SERVER_HTTP_H_
