#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace tsc::server {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPollMs = 100;        ///< listener stop-poll cadence
constexpr int kClientRecvMs = 200;  ///< client read slice (stop-poll)
constexpr std::uint64_t kMaxTimeoutMs = 60'000;

std::string JsonError(std::string_view message) {
  JsonWriter json;
  json.BeginObject();
  json.KV("error", message);
  json.EndObject();
  return json.Release();
}

/// Maps a Status from parsing/planning to the HTTP layer: every bad
/// request shape is the client's fault.
int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound:
      return 400;
    default:
      return 500;
  }
}

/// The server.latency_us.<endpoint> histograms of the fixed endpoint
/// set, looked up once per process.
struct LatencyHistograms {
  obs::Histogram& metrics;
  obs::Histogram& data;
  obs::Histogram& query;
  obs::Histogram& cell;
};

const LatencyHistograms& Latency() {
  static const LatencyHistograms histograms{
      obs::MetricRegistry::Default().GetHistogram("server.latency_us.metrics"),
      obs::MetricRegistry::Default().GetHistogram("server.latency_us.data"),
      obs::MetricRegistry::Default().GetHistogram("server.latency_us.query"),
      obs::MetricRegistry::Default().GetHistogram("server.latency_us.cell")};
  return histograms;
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Records the whole µs spent writing one answer's body since `start` in
/// the request.serialize_us histogram and, the same value, in the
/// request's cost vector.
void RecordSerializeUs(Clock::time_point start) {
  static obs::Histogram& serialize_hist =
      obs::MetricRegistry::Default().GetHistogram("request.serialize_us");
  const auto serialize_us = static_cast<std::uint64_t>(MicrosSince(start));
  serialize_hist.Record(static_cast<double>(serialize_us));
  obs::ChargeSerializeUs(serialize_us);
}

/// The slow-query log's endpoint tag for a request path.
std::string EndpointTag(const std::string& path) {
  if (path == "/api/v1/data") return "data";
  if (path == "/api/v1/query") return "query";
  if (path == "/api/v1/cell") return "cell";
  return "other";
}

/// An incoming X-Trace-Id is honored when it looks like a trace id
/// (short, alphanumeric plus -_), so callers can stitch our spans into
/// their own traces; anything else gets a fresh id.
bool SaneTraceId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

/// Rebuilds the request line for the slow-query log from the parsed
/// request (the raw target is not retained past parsing).
std::string RequestLine(const HttpRequest& request) {
  std::string line = request.method + " " + request.path;
  char sep = '?';
  for (const auto& [key, value] : request.params) {
    line += sep;
    line += key;
    line += '=';
    line += value;
    sep = '&';
  }
  return line;
}

/// k=v cost vector plus the process SIMD tier for X-Query-Cost.
std::string CostHeaderValue(const obs::QueryCostVector& costs) {
  return costs.ToKvString() + " simd=" +
         kernels::SimdLevelName(kernels::ActiveSimdLevel());
}

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

QueryServer::QueryServer(const QueryExecutor* executor,
                         const CompressedStore* store,
                         const ServerOptions& options)
    : executor_(executor), store_(store), options_(options) {
  AdmissionController::Options admission;
  admission.max_concurrent = options_.max_concurrent > 0
                                 ? options_.max_concurrent
                                 : ThreadPool::HardwareThreads();
  admission.max_queue = options_.max_queue;
  admission_ = std::make_unique<AdmissionController>(admission);
  slowlog_ = std::make_unique<obs::SlowQueryLog>(options_.slowlog_capacity);
  start_time_ = Clock::now();
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  stopping_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("invalid bind address: " +
                                   options_.bind_address);
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("bind failed: ") +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 512) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  admission_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Unblock reads in flight; the threads notice stopping_ and exit.
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (Connection& connection : connections_) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  ReapConnections(/*all=*/true);
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    ReapConnections(/*all=*/false);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(connections_mu_);
    if (connections_.size() >= options_.max_connections) {
      const std::string response = SerializeResponse(
          503, "application/json", JsonError("connection limit reached"),
          /*keep_alive=*/false);
      (void)::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    connections_.emplace_back();
    Connection* connection = &connections_.back();
    connection->fd = fd;
    connection->thread =
        std::thread([this, connection] { ServeConnection(connection); });
  }
}

void QueryServer::ReapConnections(bool all) {
  std::list<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || it->done.load(std::memory_order_acquire)) {
        auto next = std::next(it);
        finished.splice(finished.end(), connections_, it);
        it = next;
      } else {
        ++it;
      }
    }
  }
  for (Connection& connection : finished) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

void QueryServer::ServeConnection(Connection* connection) {
  static obs::Counter& connections_counter =
      obs::MetricRegistry::Default().GetCounter("server.connections");
  connections_counter.Increment();
  const int fd = connection->fd;
  SetRecvTimeout(fd, kClientRecvMs);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  bool keep_alive = true;
  auto last_activity = Clock::now();
  while (keep_alive && !stopping_.load(std::memory_order_acquire)) {
    // Assemble one header section, enforcing the byte cap as it grows.
    std::size_t header_end = 0;
    bool have_request = false;
    while (!stopping_.load(std::memory_order_acquire)) {
      const bool complete = FindHeaderEnd(buffer, &header_end);
      if (complete && header_end <= options_.http.max_header_bytes) {
        have_request = true;
        break;
      }
      if (complete || buffer.size() > options_.http.max_header_bytes) {
        const std::string response =
            SerializeResponse(431, "application/json",
                              JsonError("headers too large"), false);
        (void)::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
        keep_alive = false;
        break;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
        last_activity = Clock::now();
        continue;
      }
      if (n == 0) {  // client closed
        keep_alive = false;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - last_activity)
                              .count();
        if (static_cast<std::uint64_t>(idle) >= options_.idle_timeout_ms) {
          keep_alive = false;  // idle keep-alive connection
          break;
        }
        continue;
      }
      keep_alive = false;  // hard socket error
      break;
    }
    if (!have_request || !keep_alive) break;

    auto request = ParseRequest(
        std::string_view(buffer).substr(0, header_end), options_.http);
    buffer.erase(0, header_end);
    std::string response;
    if (!request.ok()) {
      response = SerializeResponse(400, "application/json",
                                   JsonError(request.status().message()),
                                   /*keep_alive=*/false);
      keep_alive = false;
    } else {
      response = HandleRequest(*request);
      keep_alive = request->keep_alive;
    }
    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n = ::send(fd, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        keep_alive = false;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    last_activity = Clock::now();
  }
  ::close(fd);
  connection->done.store(true, std::memory_order_release);
}

std::string QueryServer::HandleRequest(const HttpRequest& request) {
  static obs::Counter& requests_counter =
      obs::MetricRegistry::Default().GetCounter("server.requests");
  static obs::Counter& errors_counter =
      obs::MetricRegistry::Default().GetCounter("server.http_errors");
  requests_counter.Increment();

  const auto started = Clock::now();
  std::string trace_id;
  if (const auto it = request.headers.find("x-trace-id");
      it != request.headers.end() && SaneTraceId(it->second)) {
    trace_id = it->second;
  } else {
    trace_id = obs::GenerateTraceId();
  }
  HeaderList extra;
  extra.emplace_back("X-Trace-Id", trace_id);

  if (request.method != "GET") {
    errors_counter.Increment();
    return SerializeResponse(405, "application/json",
                             JsonError("only GET is supported"),
                             request.keep_alive, extra);
  }

  // Control-plane endpoints bypass admission: they must answer even
  // (especially) when the query plane is saturated.
  if (request.path == "/healthz") {
    if (request.Param("verbose", "") == "1") {
      return SerializeResponse(200, "application/json",
                               HealthzVerboseJson(), request.keep_alive,
                               extra);
    }
    return SerializeResponse(200, "text/plain", "ok\n", request.keep_alive,
                             extra);
  }
  if (request.path == "/metrics") {
    const auto scrape_started = Clock::now();
    // By value: Param returns a reference to the fallback temporary
    // when the parameter is absent, which dies at end of statement.
    const std::string format = request.Param("format", "prometheus");
    std::string body;
    std::string content_type;
    if (format == "json") {
      body = obs::TakeSnapshot().ToJson();
      content_type = "application/json";
    } else if (format == "table") {
      body = obs::TakeSnapshot().ToTable();
      content_type = "text/plain";
    } else {
      body = obs::ToPrometheusText(obs::TakeSnapshot());
      content_type = "text/plain; version=0.0.4";
    }
    Latency().metrics.Record(MicrosSince(scrape_started));
    return SerializeResponse(200, content_type, body, request.keep_alive,
                             extra);
  }
  if (request.path == "/api/v1/debug/slow") {
    const std::vector<obs::SlowQueryEntry> entries = slowlog_->Snapshot();
    if (request.Param("format", "json") == "table") {
      return SerializeResponse(200, "text/plain",
                               obs::SlowQueryLog::ToTable(entries),
                               request.keep_alive, extra);
    }
    return SerializeResponse(
        200, "application/json",
        obs::SlowQueryLog::ToJson(entries, slowlog_->capacity()),
        request.keep_alive, extra);
  }

  // Query plane: run under a request-scoped context so every storage
  // layer charges its work to this request, then offer the outcome to
  // the slow-query log. When instruments are off the context is not
  // installed and the whole block reduces to RouteApi.
  const bool instruments = obs::InstrumentsEnabled();
  obs::QueryContext context(trace_id);
  int status = 200;
  std::string body;
  {
    obs::ScopedQueryContext scope(instruments ? &context : nullptr);
    body = RouteApi(request, &status);
  }
  if (status >= 400) errors_counter.Increment();
  if (instruments) {
    const double latency_us = MicrosSince(started);
    slowlog_->RecordIfSlow(latency_us, [&] {
      obs::SlowQueryEntry entry;
      entry.trace_id = trace_id;
      entry.endpoint = EndpointTag(request.path);
      entry.request_line = RequestLine(request);
      entry.http_status = status;
      entry.latency_us = latency_us;
      entry.costs = context.Costs();
      return entry;
    });
    if (request.Param("debug", "") == "1" ||
        request.headers.find("x-tsc-debug") != request.headers.end()) {
      extra.emplace_back("X-Query-Cost", CostHeaderValue(context.Costs()));
    }
  }
  const bool json = !body.empty() && (body.front() == '{');
  return SerializeResponse(status, json ? "application/json" : "text/plain",
                           body, request.keep_alive, extra);
}

std::string QueryServer::HealthzVerboseJson() const {
  JsonWriter json;
  json.BeginObject();
  json.KV("status", "ok");
  json.KV("uptime_s",
          std::chrono::duration<double>(Clock::now() - start_time_).count());
  json.KV("connections_accepted", connections_accepted());
  json.KV("slowlog_recorded", slowlog_->recorded());
  json.EndObject();
  return json.Release();
}

std::string QueryServer::RouteApi(const HttpRequest& request,
                                  int* status_out) {
  const bool is_data = request.path == "/api/v1/data";
  const bool is_query = request.path == "/api/v1/query";
  const bool is_cell = request.path == "/api/v1/cell";
  if (!is_data && !is_query && !is_cell) {
    *status_out = 404;
    return JsonError("no such endpoint");
  }

  // Per-request deadline: the default, or a capped timeout_ms override.
  std::uint64_t timeout_ms = options_.timeout_ms;
  if (request.HasParam("timeout_ms")) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(
        request.Param("timeout_ms", "").c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || parsed == 0) {
      *status_out = 400;
      return JsonError("malformed timeout_ms");
    }
    timeout_ms = std::min<std::uint64_t>(parsed, kMaxTimeoutMs);
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);

  AdmissionController::Permit permit;
  const auto admission_started = Clock::now();
  const AdmissionController::Outcome outcome =
      admission_->Acquire(deadline, &permit);
  obs::ChargeAdmissionWaitUs(
      static_cast<std::uint64_t>(MicrosSince(admission_started)));
  switch (outcome) {
    case AdmissionController::Outcome::kAdmitted:
      break;
    case AdmissionController::Outcome::kRejected:
      *status_out = 429;
      return JsonError("overloaded: admission queue full");
    case AdmissionController::Outcome::kTimedOut:
      *status_out = 504;
      return JsonError("deadline exceeded while queued");
    case AdmissionController::Outcome::kShutdown:
      *status_out = 503;
      return JsonError("shutting down");
  }

  const auto started = Clock::now();
  std::string body;
  if (is_data) {
    auto resolved = ResolveDataRequest(
        request.params, executor_->rows(), executor_->cols(), options_.data,
        options_.row_keys.empty() ? nullptr : &options_.row_keys);
    if (!resolved.ok()) {
      *status_out = StatusToHttp(resolved.status());
      body = JsonError(resolved.status().message());
    } else if (auto result = ExecuteDataRequest(*executor_, *resolved);
               !result.ok()) {
      *status_out = StatusToHttp(result.status());
      body = JsonError(result.status().message());
    } else {
      const auto serialize_started = Clock::now();
      body = request.Param("format", "json") == "csv"
                 ? DataResultToCsv(*result)
                 : DataResultToJson(*result);
      RecordSerializeUs(serialize_started);
    }
    Latency().data.Record(
        std::chrono::duration<double, std::micro>(Clock::now() - started)
            .count());
    return body;
  }

  if (is_query) {
    // By value: the fallback temporary dies at end of statement.
    const std::string text = request.Param("q", "");
    if (text.empty()) {
      *status_out = 400;
      return JsonError("q parameter required");
    }
    auto result = executor_->Execute(text);
    if (!result.ok()) {
      *status_out = StatusToHttp(result.status());
      body = JsonError(result.status().message());
    } else if (request.Param("format", "text") == "json") {
      const auto serialize_started = Clock::now();
      body = QueryResultToJson(*result);
      RecordSerializeUs(serialize_started);
    } else {
      // Byte-identical to `tsctool sql` writing to stdout: one value
      // per line under default ostream double formatting.
      const auto serialize_started = Clock::now();
      for (const double value : result->values) {
        AppendDefaultFormat(value, &body);
        body += '\n';
      }
      if (request.Param("analyze", "") == "1") body += result->AnalyzeFooter();
      RecordSerializeUs(serialize_started);
    }
    Latency().query.Record(
        std::chrono::duration<double, std::micro>(Clock::now() - started)
            .count());
    return body;
  }

  // /api/v1/cell
  auto row = ParseRowsParam(request.Param("row", ""), store_->rows(), 1);
  auto col = ParseRowsParam(request.Param("col", ""), store_->cols(), 1);
  if (!row.ok() || row->size() != 1 || (*row)[0].lo != (*row)[0].hi ||
      !col.ok() || col->size() != 1 || (*col)[0].lo != (*col)[0].hi) {
    *status_out = 400;
    return JsonError("row= and col= must each be one index");
  }
  // ParseRowsParam has range-checked both coordinates against the store.
  const std::size_t r = (*row)[0].lo;
  const std::size_t c = (*col)[0].lo;
  // An SVDD model reads the cell through its Status form: with U on disk
  // a failed read is an error status, never a number.
  const SvddModel* model = store_->compressed_domain();
  const StatusOr<double> value = model != nullptr
                                     ? model->TryReconstructCell(r, c)
                                     : store_->ReconstructCell(r, c);
  if (!value.ok()) {
    *status_out = StatusToHttp(value.status());
    body = JsonError(value.status().message());
  } else {
    const auto serialize_started = Clock::now();
    JsonWriter json;
    json.BeginObject();
    json.KV("row", static_cast<std::uint64_t>(r));
    json.KV("col", static_cast<std::uint64_t>(c));
    json.KV("value", *value);
    json.EndObject();
    body = json.Release();
    RecordSerializeUs(serialize_started);
  }
  Latency().cell.Record(
      std::chrono::duration<double, std::micro>(Clock::now() - started)
          .count());
  return body;
}

}  // namespace tsc::server
