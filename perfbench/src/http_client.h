#ifndef TSC_PERFBENCH_HTTP_CLIENT_H_
#define TSC_PERFBENCH_HTTP_CLIENT_H_

#include <string>

namespace perfbench {

/// One parsed HTTP/1.1 response.
struct HttpResponse {
  int status = 0;
  std::string body;
  std::string trace_id;    ///< X-Trace-Id
  std::string query_cost;  ///< X-Query-Cost (only with the debug header)
};

/// Blocking keep-alive HTTP/1.1 client on one loopback connection. A
/// transport failure closes the socket; the next Get reconnects.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(int port) : port_(port) {}
  ~KeepAliveClient();
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  /// GETs `target`; `debug` adds the X-Tsc-Debug header that makes the
  /// server return its per-request cost vector. False on transport
  /// failure (connect, send, short read or malformed response).
  bool Get(const std::string& target, bool debug, HttpResponse* response);

 private:
  bool Connect();
  void Close();

  int port_;
  int fd_ = -1;
  std::string pending_;  ///< bytes read past the previous response
};

/// Percent-encodes everything but unreserved characters.
std::string UrlEncode(const std::string& text);

}  // namespace perfbench

#endif  // TSC_PERFBENCH_HTTP_CLIENT_H_
