// Closed-loop load bench for the concurrent query server: N client
// threads, each with one keep-alive connection, issue requests
// back-to-back against an in-process QueryServer on an ephemeral port.
// Every response is validated — SQL text answers must match the
// `tsctool sql` bytes exactly, data/cell answers must match bodies
// precomputed through the same data-API code the server runs — so the
// reported QPS is a *correct-responses* rate, not just bytes moved.
// A final section re-runs with a deliberately tiny admission queue to
// show load shedding: the server must answer 429 quickly instead of
// melting.
//
// Flags: --rows=4000 --cols=128 --space=10 --clients=64,256,1024
//        --requests=20 --max_concurrent=0 (0 = hardware threads)
//        --queue=2048 --timeout_ms=30000 --json=FILE

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_datasets.h"
#include "common/json_reporter.h"
#include "query/executor.h"
#include "server/data_api.h"
#include "server/server.h"
#include "storage/row_source.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

/// Minimal blocking HTTP client: one connection, sequential GETs.
class LoadClient {
 public:
  explicit LoadClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LoadClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// GETs `target`; fills status and body. False on transport failure.
  bool Get(const std::string& target, int* status, std::string* body) {
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: b\r\n\r\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::string buffer;
    char chunk[8192];
    std::size_t header_end = std::string::npos;
    while (header_end == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer.append(chunk, static_cast<std::size_t>(n));
      header_end = buffer.find("\r\n\r\n");
    }
    *status = std::atoi(buffer.c_str() + 9);
    std::size_t content_length = 0;
    const std::size_t cl = buffer.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      content_length =
          static_cast<std::size_t>(std::atoll(buffer.c_str() + cl + 16));
    }
    std::string rest = buffer.substr(header_end + 4);
    while (rest.size() < content_length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      rest.append(chunk, static_cast<std::size_t>(n));
    }
    *body = rest.substr(0, content_length);
    return true;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct LevelResult {
  std::size_t clients = 0;
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t shed_429 = 0;
  std::size_t timeout_504 = 0;
  std::size_t incorrect = 0;
  std::size_t transport_errors = 0;
  double wall_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(index, sorted->size() - 1)];
}

/// One precomputed request: target plus the exact expected 200-body
/// (empty = only status/stability is checked).
struct Expected {
  std::string target;
  std::string body;
};

/// Counters sampled from the live server before and after the load
/// phase; the deltas land in the JSON report so a bench run carries the
/// server's own accounting of the work it did (cache traffic, bytes
/// read, rows scanned) alongside the client-side QPS numbers.
const char* const kDeltaCounters[] = {
    "server.requests",  "server.connections", "server.rejected",
    "block_cache.hits", "block_cache.misses", "io.bytes_read",
    "query.rows_scanned",
};

/// Reads one counter out of the /metrics?format=json body. The snapshot
/// serializer emits flat `"name":value` pairs, so a substring scan is
/// enough — no JSON parser needed. Missing names (e.g. a counter never
/// touched, or an instruments-disabled build) read as 0.
double CounterFromJson(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

/// GETs /metrics?format=json from the running server and extracts the
/// delta-tracked counters. Transport failures read as all-zero.
std::map<std::string, double> SampleCounters(int port) {
  std::map<std::string, double> counters;
  LoadClient client(port);
  int status = 0;
  std::string body;
  if (client.connected() && client.Get("/metrics?format=json", &status, &body)
      && status == 200) {
    for (const char* name : kDeltaCounters) {
      counters[name] = CounterFromJson(body, name);
    }
  }
  return counters;
}

LevelResult RunLevel(int port, std::size_t clients, std::size_t requests,
                     const std::vector<Expected>& mix) {
  LevelResult level;
  level.clients = clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> ok{0}, shed{0}, timeouts{0}, incorrect{0},
      errors{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadClient client(port);
      if (!client.connected()) {
        errors.fetch_add(requests);
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      latencies[c].reserve(requests);
      for (std::size_t r = 0; r < requests; ++r) {
        const Expected& expected = mix[(c + r) % mix.size()];
        int status = 0;
        std::string body;
        tsc::Timer timer;
        if (!client.Get(expected.target, &status, &body)) {
          errors.fetch_add(1);
          return;  // connection is gone; stop this client
        }
        latencies[c].push_back(timer.ElapsedSeconds() * 1e6);
        if (status == 200) {
          if (!expected.body.empty() && body != expected.body) {
            incorrect.fetch_add(1);
          } else {
            ok.fetch_add(1);
          }
        } else if (status == 429) {
          shed.fetch_add(1);
        } else if (status == 504) {
          timeouts.fetch_add(1);
        } else {
          incorrect.fetch_add(1);
        }
      }
    });
  }
  tsc::Timer wall;
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  level.wall_s = wall.ElapsedSeconds();
  level.total = clients * requests;
  level.ok = ok.load();
  level.shed_429 = shed.load();
  level.timeout_504 = timeouts.load();
  level.incorrect = incorrect.load();
  level.transport_errors = errors.load();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  level.p50_us = Percentile(&all, 0.50);
  level.p99_us = Percentile(&all, 0.99);
  level.p999_us = Percentile(&all, 0.999);
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t rows = static_cast<std::size_t>(flags.GetInt("rows", 4000));
  const std::size_t cols = static_cast<std::size_t>(flags.GetInt("cols", 128));
  const double space = flags.GetDouble("space", 10.0);
  const std::vector<std::int64_t> client_levels =
      flags.GetIntList("clients", {64, 256, 1024});
  const std::size_t requests =
      static_cast<std::size_t>(flags.GetInt("requests", 20));
  const std::size_t max_concurrent =
      static_cast<std::size_t>(flags.GetInt("max_concurrent", 0));
  const std::size_t queue =
      static_cast<std::size_t>(flags.GetInt("queue", 2048));
  const std::uint64_t timeout_ms =
      static_cast<std::uint64_t>(flags.GetInt("timeout_ms", 30000));
  const std::string json_path = flags.GetString("json", "");

  std::printf("=== Concurrent query server: closed-loop load ===\n\n");
  std::printf("hardware threads available: %zu\n\n",
              tsc::ThreadPool::HardwareThreads());

  tsc::PhoneDatasetConfig config;
  config.num_customers = rows;
  config.num_days = cols;
  config.seed = 42;
  const tsc::Dataset dataset = tsc::GeneratePhoneDataset(config);
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());

  tsc::MatrixRowSource source(&dataset.values);
  tsc::SvddBuildOptions build;
  build.space_percent = space;
  auto model = tsc::BuildSvddModel(&source, build);
  TSC_CHECK_OK(model.status());
  const tsc::QueryExecutor executor(&*model);

  // The request mix: a compressed-domain SQL aggregate, a scan-backed
  // SQL aggregate, a windowed+downsampled data query, and a cell probe.
  // Expected bodies are computed up front.
  std::vector<Expected> mix;
  const auto sql_expected = [&](const std::string& query) {
    auto result = executor.Execute(query);
    TSC_CHECK_OK(result.status());
    std::ostringstream out;
    for (const double value : result->values) out << value << "\n";
    return out.str();
  };
  mix.push_back({"/api/v1/query?q=SELECT+sum(value)",
                 sql_expected("SELECT sum(value)")});
  mix.push_back({"/api/v1/query?q=SELECT+max(value)+WHERE+row+IN+0:99",
                 sql_expected("SELECT max(value) WHERE row IN 0:99")});
  {
    std::map<std::string, std::string> params = {{"after", "-64"},
                                                 {"before", "0"},
                                                 {"points", "16"},
                                                 {"group", "avg"}};
    auto resolved = tsc::server::ResolveDataRequest(
        params, executor.rows(), executor.cols(), tsc::server::DataApiLimits{});
    TSC_CHECK_OK(resolved.status());
    auto data = tsc::server::ExecuteDataRequest(executor, *resolved);
    TSC_CHECK_OK(data.status());
    mix.push_back({"/api/v1/data?after=-64&before=0&points=16&group=avg",
                   tsc::server::DataResultToJson(*data)});
  }
  // Cell bodies vary with batching order only in nothing — the value is
  // deterministic — but the exact JSON is cheap to precompute too.
  mix.push_back({"/api/v1/cell?row=17&col=23", ""});

  tsc::server::ServerOptions options;
  options.max_concurrent = max_concurrent;
  options.max_queue = queue;
  options.timeout_ms = timeout_ms;
  options.max_connections = 2048;
  tsc::server::QueryServer server(&executor, &*model, options);
  TSC_CHECK_OK(server.Start());
  std::printf("server on 127.0.0.1:%d (max_concurrent=%zu queue=%zu)\n\n",
              server.port(),
              options.max_concurrent > 0 ? options.max_concurrent
                                         : tsc::ThreadPool::HardwareThreads(),
              queue);

  tsc::TablePrinter table({"clients", "total", "ok", "shed", "timeout",
                           "incorrect", "qps", "p50_us", "p99_us",
                           "p999_us"});
  tsc::bench::JsonReporter reporter(
      "server_load", {"clients", "total", "ok", "shed_429", "timeout_504",
                      "incorrect", "transport_errors", "qps", "p50_us",
                      "p99_us", "p999_us"});
  reporter.AddScalar("rows", static_cast<double>(rows));
  reporter.AddScalar("cols", static_cast<double>(cols));
  reporter.AddScalar("space_percent", space);
  reporter.AddScalar("requests_per_client", static_cast<double>(requests));
  reporter.AddScalar("hardware_threads",
                     static_cast<double>(tsc::ThreadPool::HardwareThreads()));

  const std::map<std::string, double> counters_before =
      SampleCounters(server.port());

  std::size_t incorrect_total = 0;
  for (const std::int64_t level_clients : client_levels) {
    const LevelResult level = RunLevel(
        server.port(), static_cast<std::size_t>(level_clients), requests,
        mix);
    const double qps =
        level.wall_s > 0.0
            ? static_cast<double>(level.ok + level.shed_429 +
                                  level.timeout_504) /
                  level.wall_s
            : 0.0;
    incorrect_total += level.incorrect + level.transport_errors;
    table.AddRow({tsc::TablePrinter::Num(level.clients),
                  tsc::TablePrinter::Num(level.total),
                  tsc::TablePrinter::Num(level.ok),
                  tsc::TablePrinter::Num(level.shed_429),
                  tsc::TablePrinter::Num(level.timeout_504),
                  tsc::TablePrinter::Num(level.incorrect),
                  tsc::TablePrinter::Num(qps),
                  tsc::TablePrinter::Num(level.p50_us),
                  tsc::TablePrinter::Num(level.p99_us),
                  tsc::TablePrinter::Num(level.p999_us)});
    reporter.AddRow({tsc::TablePrinter::Num(level.clients),
                     tsc::TablePrinter::Num(level.total),
                     tsc::TablePrinter::Num(level.ok),
                     tsc::TablePrinter::Num(level.shed_429),
                     tsc::TablePrinter::Num(level.timeout_504),
                     tsc::TablePrinter::Num(level.incorrect),
                     tsc::TablePrinter::Num(level.transport_errors),
                     tsc::TablePrinter::Num(qps),
                     tsc::TablePrinter::Num(level.p50_us),
                     tsc::TablePrinter::Num(level.p99_us),
                     tsc::TablePrinter::Num(level.p999_us)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // /metrics deltas across the load phase: what the server says it did.
  const std::map<std::string, double> counters_after =
      SampleCounters(server.port());
  std::printf("server-side /metrics deltas across the load phase:\n");
  for (const char* name : kDeltaCounters) {
    double delta = 0.0;
    const auto after_it = counters_after.find(name);
    const auto before_it = counters_before.find(name);
    if (after_it != counters_after.end()) {
      delta = after_it->second -
              (before_it != counters_before.end() ? before_it->second : 0.0);
    }
    std::printf("  %-24s %+.0f\n", name, delta);
    reporter.AddScalar(std::string("metrics_delta.") + name, delta);
  }
  std::printf("\n");
  server.Stop();

  // Shed section: a 1-slot, 2-deep server hammered by 32 clients must
  // answer 429 for the overflow instead of queueing without bound.
  tsc::server::ServerOptions tight;
  tight.max_concurrent = 1;
  tight.max_queue = 2;
  tight.timeout_ms = timeout_ms;
  tsc::server::QueryServer tight_server(&executor, &*model, tight);
  TSC_CHECK_OK(tight_server.Start());
  const LevelResult shed_level =
      RunLevel(tight_server.port(), 32, requests, mix);
  tight_server.Stop();
  std::printf("shed section (max_concurrent=1 queue=2, 32 clients): "
              "%zu ok, %zu shed with 429, %zu incorrect\n",
              shed_level.ok, shed_level.shed_429, shed_level.incorrect);
  incorrect_total += shed_level.incorrect + shed_level.transport_errors;
  reporter.AddScalar("shed_section_ok", static_cast<double>(shed_level.ok));
  reporter.AddScalar("shed_section_429",
                     static_cast<double>(shed_level.shed_429));
  reporter.AddScalar("incorrect_responses",
                     static_cast<double>(incorrect_total));

  std::printf("\nincorrect responses across all sections: %zu %s\n",
              incorrect_total, incorrect_total == 0 ? "(PASS)" : "(FAIL)");

  if (!json_path.empty()) {
    TSC_CHECK_OK(reporter.WriteFile(json_path));
    std::printf("json written to %s\n", json_path.c_str());
  }
  return incorrect_total == 0 ? 0 : 1;
}
