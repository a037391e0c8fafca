#ifndef TSC_SERVER_SERVER_H_
#define TSC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <vector>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/query_context.h"
#include "obs/slowlog.h"
#include "query/executor.h"
#include "server/admission.h"
#include "server/data_api.h"
#include "server/http.h"
#include "util/status.h"

namespace tsc::server {

/// Serving knobs. The defaults suit tests and a small deployment; the
/// CLI exposes the interesting ones.
struct ServerOptions {
  int port = 0;  ///< 0 binds an ephemeral port (read it back via port())
  /// Listen address. The loopback default keeps the server private to
  /// the machine; binding anything else (e.g. "0.0.0.0") exposes an
  /// UNAUTHENTICATED query API to the network — see docs/server.md
  /// before doing that.
  std::string bind_address = "127.0.0.1";
  /// Admission: concurrent executions (0 = hardware threads), bounded
  /// queue, default per-request deadline.
  std::size_t max_concurrent = 0;
  std::size_t max_queue = 64;
  std::uint64_t timeout_ms = 2000;
  /// Connection handling.
  std::size_t max_connections = 1024;  ///< beyond this, connections get 503
  std::uint64_t idle_timeout_ms = 5000;  ///< keep-alive read timeout
  /// Request-shape ceilings.
  HttpLimits http;
  DataApiLimits data;
  /// Observability: slow-query log depth.
  std::size_t slowlog_capacity = 64;
  /// Row-key map for `rows=~pattern` dimension filters (one key per
  /// row; empty disables the pattern form).
  std::vector<std::string> row_keys;
};

/// The concurrent query server: a listener thread accepts connections
/// on 127.0.0.1, each connection gets a thread speaking HTTP/1.1 with
/// keep-alive, and every API request passes through the shared
/// AdmissionController before touching the executor. All connections
/// share one QueryExecutor and one CompressedStore — against a
/// disk-backed store that means one BlockCache buffer pool serving the
/// whole client population.
///
/// Endpoints:
///   GET /healthz            liveness probe ("ok"), never queued;
///                           verbose=1 adds JSON uptime, connections
///                           and the slow-log count
///   GET /metrics            Prometheus text exposition (version 0.0.4),
///                           never queued; format=json keeps the legacy
///                           snapshot JSON, format=table an aligned table
///   GET /api/v1/data        netdata-style window query (see data_api.h);
///                           format=json (default) | csv; rows= accepts
///                           index ranges or ~key-regex
///   GET /api/v1/query       q=<SQL>; format=text matches `tsctool sql`
///                           byte for byte, format=json adds stats
///   GET /api/v1/cell        row=I&col=J single-cell probe: one
///                           store ReconstructCell (one U-row read)
///   GET /api/v1/debug/slow  the K slowest requests with their cost
///                           vectors, never queued; format=json | table
///
/// Admission outcomes on the wire: queue full => 429, deadline passed
/// while queued => 504, shutting down => 503. A per-request
/// timeout_ms parameter (capped at 60s) overrides the default deadline.
///
/// Request-scoped observability: every response carries X-Trace-Id
/// (honoring a sane incoming X-Trace-Id, else generated); API requests
/// run under a thread-local obs::QueryContext so storage/query layers
/// attribute cache hits/misses, blocks, io bytes, rows and delta probes
/// to the request. `debug=1` (or an X-Tsc-Debug header) returns the
/// cost vector in an X-Query-Cost response header.
///
/// The executor must have been built with num_threads == 1: concurrent
/// Execute calls are only safe without an internal scan pool, and
/// cross-request concurrency is what this server scales by.
class QueryServer {
 public:
  QueryServer(const QueryExecutor* executor, const CompressedStore* store,
              const ServerOptions& options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and starts the accept loop. Fails if already
  /// running or the port is taken.
  Status Start();

  /// Stops accepting, fails queued requests, unblocks and joins every
  /// connection thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after Start(); with options.port == 0 this
  /// is the kernel-assigned ephemeral port).
  int port() const { return port_; }

  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Routes one already-parsed request exactly as a connection thread
  /// would (admission included) and returns the serialized response.
  /// Exposed for tests that want the routing logic without sockets.
  std::string HandleRequest(const HttpRequest& request);

  const obs::SlowQueryLog& slowlog() const { return *slowlog_; }

 private:
  struct Connection {
    std::thread thread;
    int fd = -1;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Joins finished connection threads; `all` waits for every one.
  void ReapConnections(bool all);
  std::string RouteApi(const HttpRequest& request, int* status_out);
  std::string HealthzVerboseJson() const;

  const QueryExecutor* executor_;
  const CompressedStore* store_;
  ServerOptions options_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<obs::SlowQueryLog> slowlog_;
  std::chrono::steady_clock::time_point start_time_{};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex connections_mu_;
  std::list<Connection> connections_;
  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace tsc::server

#endif  // TSC_SERVER_SERVER_H_
