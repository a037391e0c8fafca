// End-to-end coverage for the server telemetry surface: X-Trace-Id on
// every response, the opt-in X-Query-Cost vector, the Prometheus
// /metrics exposition (content type and shape), the slow-query debug
// endpoint, the verbose health report, the rows=~regex selector, and
// the 5% overhead guard over the serving path. Labeled obs-server.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/row_source.h"
#include "tests/server/http_client.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tsc::server {
namespace {

using testing::ClientResponse;
using testing::TestClient;

class ServerObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PhoneDatasetConfig config;
    config.num_customers = 150;
    config.num_days = 50;
    Matrix data = GeneratePhoneDataset(config).values;
    MatrixRowSource source(&data);
    SvddBuildOptions options;
    options.space_percent = 25.0;
    auto model = BuildSvddModel(&source, options);
    TSC_CHECK_OK(model.status());
    model_ = new SvddModel(std::move(*model));
    executor_ = new QueryExecutor(model_);
  }
  static void TearDownTestSuite() {
    delete executor_;
    delete model_;
  }

  /// ServerOptions with a key per row ("cust-000", "cust-001", ...).
  static ServerOptions KeyedOptions() {
    ServerOptions options;
    for (std::size_t i = 0; i < model_->rows(); ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "cust-%03zu", i);
      options.row_keys.push_back(key);
    }
    return options;
  }

  static SvddModel* model_;
  static QueryExecutor* executor_;
};

SvddModel* ServerObsTest::model_ = nullptr;
QueryExecutor* ServerObsTest::executor_ = nullptr;

bool LooksLikeGeneratedTraceId(const std::string& id) {
  if (id.size() != 16) return false;
  for (const char c : id) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

TEST_F(ServerObsTest, EveryResponseCarriesATraceId) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // No incoming id: the server mints a 16-hex-digit one.
  ClientResponse response = client.Get("/healthz");
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(LooksLikeGeneratedTraceId(response.Header("X-Trace-Id")))
      << response.Header("X-Trace-Id");

  // A sane incoming id is echoed, so callers can stitch their traces.
  response = client.Get("/api/v1/query?q=SELECT+sum(value)", true,
                        {"X-Trace-Id: my-trace_0042"});
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.Header("X-Trace-Id"), "my-trace_0042");

  // A hostile id (header-splitting characters) is replaced.
  response = client.Get("/healthz", true, {"X-Trace-Id: bad id (spaces)"});
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(LooksLikeGeneratedTraceId(response.Header("X-Trace-Id")));

  // Error responses are traced too: that's when the id matters most.
  response = client.Get("/nope", true, {"X-Trace-Id: still-traced"});
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.Header("X-Trace-Id"), "still-traced");

  ClientResponse metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_FALSE(metrics.Header("X-Trace-Id").empty());
  server.Stop();
}

TEST_F(ServerObsTest, CostVectorIsOptInAndDoesNotChangeTheBody) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // stddev can't run in the compressed domain, so rows genuinely scan
  // (a plain sum(value) would legally report rows_scanned=0).
  const std::string target = "/api/v1/query?q=SELECT+stddev(value)";
  const ClientResponse plain = client.Get(target);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.Header("X-Query-Cost"), "");

  const ClientResponse debugged = client.Get(target + "&debug=1");
  ASSERT_TRUE(debugged.ok);
  EXPECT_EQ(debugged.status, 200);
  const std::string costs = debugged.Header("X-Query-Cost");
  ASSERT_FALSE(costs.empty());
  EXPECT_NE(costs.find("rows_scanned="), std::string::npos) << costs;
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(costs.find("rows_scanned=0"), std::string::npos) << costs;
#endif
  EXPECT_NE(costs.find("admission_wait_us="), std::string::npos);
  EXPECT_NE(costs.find("simd="), std::string::npos) << costs;
  // Costs ride the header only: the body stays byte-identical.
  EXPECT_EQ(debugged.body, plain.body);

  // The header form of the opt-in, for clients that can't touch the URL.
  const ClientResponse via_header =
      client.Get(target, true, {"X-Tsc-Debug: 1"});
  ASSERT_TRUE(via_header.ok);
  EXPECT_FALSE(via_header.Header("X-Query-Cost").empty());

  // A cell probe carries the same cost vector. That each concurrent
  // probe reports its own storage work is checked against a disk store
  // in server_concurrency_test.cc.
  const ClientResponse cell = client.Get("/api/v1/cell?row=3&col=7&debug=1");
  ASSERT_TRUE(cell.ok);
  EXPECT_EQ(cell.status, 200);
  const std::string cell_costs = cell.Header("X-Query-Cost");
  EXPECT_NE(cell_costs.find("cache_hits="), std::string::npos) << cell_costs;
  EXPECT_NE(cell_costs.find("delta_probes="), std::string::npos) << cell_costs;
  server.Stop();
}

TEST_F(ServerObsTest, MetricsSpeaksPrometheusTextByDefault) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Generate some traffic so the families exist; then one 400 moves
  // the error counter (error rate = http_errors / requests) by one.
  ASSERT_EQ(client.Get("/api/v1/query?q=SELECT+sum(value)").status, 200);
  const auto http_errors = [&client] {
    const std::string text = client.Get("/metrics").body;
    const std::string sample = "\ntsc_server_http_errors_total ";
    const std::size_t at = text.find(sample);
    EXPECT_NE(at, std::string::npos) << text.substr(0, 2000);
    return at == std::string::npos
               ? 0ull
               : std::strtoull(text.c_str() + at + sample.size(), nullptr, 10);
  };
  const unsigned long long errors_before = http_errors();
  ASSERT_EQ(client.Get("/api/v1/query?q=SELECT+nonsense").status, 400);
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(http_errors(), errors_before + 1);
#else
  (void)errors_before;
#endif

  const ClientResponse response = client.Get("/metrics");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.Header("Content-Type"), "text/plain; version=0.0.4");
  const std::string& text = response.body;
  EXPECT_NE(text.find("# TYPE tsc_server_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tsc_server_requests_total "), std::string::npos);
  // Histogram families carry the cumulative le series.
  EXPECT_NE(text.find("tsc_server_latency_us_bucket{endpoint=\"query\",le="),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  // Structural sanity: every line is a comment or `name[{labels}] value`
  // with a parseable value, and the document ends in a newline.
  ASSERT_EQ(text.back(), '\n');
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      ASSERT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      ASSERT_EQ(*end, '\0') << "unparseable sample value: " << line;
    }
  }
  server.Stop();
}

TEST_F(ServerObsTest, MetricsKeepsTheLegacyFormats) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const ClientResponse json = client.Get("/metrics?format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.Header("Content-Type"), "application/json");
  EXPECT_EQ(json.body.front(), '{');
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);

  const ClientResponse table = client.Get("/metrics?format=table");
  ASSERT_TRUE(table.ok);
  EXPECT_EQ(table.status, 200);
  EXPECT_EQ(table.Header("Content-Type"), "text/plain");
  server.Stop();
}

TEST_F(ServerObsTest, HealthzVerboseReportsSloAndUptime) {
  // The verbose form reports uptime, connections and the slow-log count;
  // latency quantiles and rates come from /metrics.
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(client.Get("/api/v1/query?q=SELECT+sum(value)").status, 200);

  const ClientResponse plain = client.Get("/healthz");
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.body, "ok\n");

  const ClientResponse verbose = client.Get("/healthz?verbose=1");
  ASSERT_TRUE(verbose.ok);
  EXPECT_EQ(verbose.status, 200);
  EXPECT_EQ(verbose.Header("Content-Type"), "application/json");
  EXPECT_NE(verbose.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(verbose.body.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(verbose.body.find("\"connections_accepted\":"), std::string::npos)
      << verbose.body;
  EXPECT_NE(verbose.body.find("\"slowlog_recorded\":"), std::string::npos);
  EXPECT_EQ(verbose.body.find("\"slo\""), std::string::npos);
  server.Stop();
}

TEST_F(ServerObsTest, SlowLogRetainsTracedRequests) {
  ServerOptions options;
  options.slowlog_capacity = 8;
  QueryServer server(executor_, model_, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ClientResponse response =
      client.Get("/api/v1/query?q=SELECT+stddev(value)", true,
                 {"X-Trace-Id: findme-0042"});
  ASSERT_TRUE(response.ok);
  ASSERT_EQ(response.status, 200);

  const ClientResponse slow = client.Get("/api/v1/debug/slow");
  ASSERT_TRUE(slow.ok);
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.Header("Content-Type"), "application/json");
  EXPECT_NE(slow.body.find("\"capacity\":8"), std::string::npos) << slow.body;
#ifndef TSC_OBS_DISABLED
  EXPECT_NE(slow.body.find("\"trace_id\":\"findme-0042\""),
            std::string::npos)
      << slow.body;
  EXPECT_NE(slow.body.find("\"latency_us\":"), std::string::npos);
  EXPECT_NE(slow.body.find("\"rows_scanned\":"), std::string::npos);

  const ClientResponse table = client.Get("/api/v1/debug/slow?format=table");
  ASSERT_TRUE(table.ok);
  EXPECT_EQ(table.status, 200);
  EXPECT_NE(table.body.find("findme-0042"), std::string::npos) << table.body;
#endif
  server.Stop();
}

TEST_F(ServerObsTest, RowsRegexSelectsByKey) {
  QueryServer server(executor_, model_, KeyedOptions());
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // ^cust-00 matches cust-000 .. cust-009: ten rows, one coalesced range.
  ClientResponse response =
      client.Get("/api/v1/data?rows=~%5Ecust-00&points=5");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"rows_selected\":10"), std::string::npos)
      << response.body;

  // The selected-row aggregate equals the equivalent index selection.
  const ClientResponse by_index =
      client.Get("/api/v1/data?rows=0:9&points=5");
  ASSERT_TRUE(by_index.ok);
  EXPECT_EQ(by_index.body, response.body);

  // Zero matches and malformed patterns are client errors.
  response = client.Get("/api/v1/data?rows=~nomatch&points=5");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  response = client.Get("/api/v1/data?rows=~%5B&points=5");  // "["
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  server.Stop();
}

TEST_F(ServerObsTest, RowsRegexWithoutKeyMapIsAClientError) {
  QueryServer server(executor_, model_);  // no row_keys configured
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const ClientResponse response =
      client.Get("/api/v1/data?rows=~cust&points=5");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  server.Stop();
}

// Overhead guard over the serving path: the full instrumented request
// cycle (context install, charges, slow-query log) must not
// make responses more than 5% slower than with instruments runtime-off,
// inside one binary. Segments run in adjacent disabled/enabled pairs (the
// order alternating pair by pair), and the score is the median of the
// pairs' enabled/disabled ratios: a pair shares the machine's state of
// the moment, so drift cancels within it, and the median over many pairs
// ignores the pairs a burst of noise hit. The test skips when the pair
// ratios spread too widely to support the comparison.
TEST_F(ServerObsTest, InstrumentedServingCostsUnderFivePercent) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  std::vector<std::string> targets;
  Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    const std::size_t row = rng.UniformUint64(model_->rows());
    const std::size_t col = rng.UniformUint64(model_->cols());
    targets.push_back("/api/v1/query?q=select+sum(value)+where+row+in+" +
                      std::to_string(row) + ":" + std::to_string(row) +
                      "+and+col+in+" + std::to_string(col) + ":" +
                      std::to_string(col));
  }

  const auto segment_micros = [&] {
    Timer timer;
    for (const std::string& target : targets) {
      const ClientResponse response = client.Get(target);
      TSC_CHECK(response.ok && response.status == 200);
    }
    return timer.ElapsedMillis() * 1000.0;
  };

  // Warm up sockets, allocators and instrument registry entries.
  (void)segment_micros();
  (void)segment_micros();

  const auto measure = [&](bool instruments) {
    obs::SetInstrumentsEnabled(instruments);
    const double micros = segment_micros();
    obs::SetInstrumentsEnabled(true);
    return micros;
  };

  constexpr int kPairs = 96;
  std::vector<double> pair_ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double disabled = 0.0;
    double enabled = 0.0;
    if (pair % 2 == 0) {
      disabled = measure(false);
      enabled = measure(true);
    } else {
      enabled = measure(true);
      disabled = measure(false);
    }
    pair_ratios.push_back(enabled / disabled);
  }
  server.Stop();
  // Noise check on the statistic itself: when the middle half of the
  // pair ratios spans more than 10%, their median cannot resolve a 5%
  // budget.
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const std::size_t pairs = pair_ratios.size();
  const double ratio = pair_ratios[pairs / 2];
  const double spread = pair_ratios[pairs * 3 / 4] - pair_ratios[pairs / 4];
  if (spread > 0.1) {
    GTEST_SKIP() << "machine too noisy: pair ratios' interquartile range "
                 << spread << ", median " << ratio;
  }
  std::printf("server-path overhead: median pair ratio %.4f "
              "(interquartile range %.4f)\n",
              ratio, spread);
  EXPECT_LT(ratio, 1.05)
      << "request telemetry costs " << (ratio - 1.0) * 100.0
      << "% on the serving path (budget: 5%)";
}

}  // namespace
}  // namespace tsc::server
