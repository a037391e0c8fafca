#include "server/server.h"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "storage/row_source.h"
#include "tests/server/http_client.h"
#include "util/logging.h"

namespace tsc::server {
namespace {

using testing::ClientResponse;
using testing::TestClient;

class ServerTest : public ::testing::Test {
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

  /// What `tsctool sql` would print for `query`: one value per line
  /// under default ostream double formatting.
  static std::string CliText(const std::string& query) {
    auto result = executor_->Execute(query);
    TSC_CHECK_OK(result.status());
    std::ostringstream out;
    for (const double value : result->values) out << value << "\n";
    return out.str();
  }

  static SvddModel* model_;
  static QueryExecutor* executor_;
};

SvddModel* ServerTest::model_ = nullptr;
QueryExecutor* ServerTest::executor_ = nullptr;

TEST_F(ServerTest, StartsOnEphemeralPortAndStops) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const ClientResponse response = client.Get("/healthz");
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "ok\n");
  }
  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop is idempotent and the port can be rebound.
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
}

TEST_F(ServerTest, QueryEndpointMatchesCliByteForByte) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"/api/v1/query?q=SELECT+sum(value)", "SELECT sum(value)"},
      {"/api/v1/query?q=SELECT+avg(value)+WHERE+row+IN+0:49",
       "SELECT avg(value) WHERE row IN 0:49"},
      {"/api/v1/query?q=SELECT+min(value),max(value)+WHERE+col+IN+5:20",
       "SELECT min(value),max(value) WHERE col IN 5:20"},
      {"/api/v1/query?q=SELECT+sum(value)+GROUP+BY+col",
       "SELECT sum(value) GROUP BY col"},
  };
  for (const auto& [target, query] : cases) {
    const ClientResponse response = client.Get(target);
    ASSERT_TRUE(response.ok) << target;
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.body, CliText(query)) << target;
  }
  server.Stop();
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  const std::string expected = CliText("SELECT sum(value)");
  for (int i = 0; i < 10; ++i) {
    const ClientResponse response =
        client.Get("/api/v1/query?q=SELECT+sum(value)");
    ASSERT_TRUE(response.ok) << "request " << i;
    EXPECT_EQ(response.body, expected);
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.Stop();
}

TEST_F(ServerTest, RejectsMalformedAndHostileRequests) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    std::string target;
    int expected_status;
  };
  const std::vector<Case> cases = {
      {"/nope", 404},
      {"/api/v1/nothing", 404},
      {"/api/v1/query", 400},                       // missing q
      {"/api/v1/query?q=DELETE+EVERYTHING", 400},   // not the grammar
      {"/api/v1/data?after=abc", 400},
      {"/api/v1/data?rows=0:99999999", 400},        // oversized selection
      {"/api/v1/data?rows=9:1", 400},
      {"/api/v1/data?points=99999999", 400},
      {"/api/v1/data?group=median", 400},
      {"/api/v1/data?before=12345", 400},
      {"/api/v1/cell?row=0", 400},                  // missing col
      {"/api/v1/cell?row=100000&col=0", 400},
      {"/api/v1/query?q=SELECT+sum(value)&timeout_ms=banana", 400},
  };
  for (const Case& c : cases) {
    TestClient client(server.port());
    const ClientResponse response = client.Get(c.target);
    ASSERT_TRUE(response.ok) << c.target;
    EXPECT_EQ(response.status, c.expected_status) << c.target;
    EXPECT_NE(response.body.find("error"), std::string::npos) << c.target;
  }

  {  // Raw garbage instead of HTTP.
    TestClient client(server.port());
    ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n"));
    const ClientResponse response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 400);
  }
  {  // POST is not supported.
    TestClient client(server.port());
    ASSERT_TRUE(client.SendRaw("POST /api/v1/query HTTP/1.1\r\n\r\n"));
    const ClientResponse response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 405);
  }
  {  // Header section larger than the cap.
    TestClient client(server.port());
    ASSERT_TRUE(client.SendRaw("GET / HTTP/1.1\r\nX: " +
                               std::string(10000, 'x') + "\r\n\r\n"));
    const ClientResponse response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 431);
  }
  server.Stop();
}

TEST_F(ServerTest, DataEndpointServesJsonAndCsv) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  const ClientResponse json =
      client.Get("/api/v1/data?after=-10&before=0&points=5&rows=0:19");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"after\":40"), std::string::npos) << json.body;
  EXPECT_NE(json.body.find("\"points\":5"), std::string::npos);

  const ClientResponse csv = client.Get(
      "/api/v1/data?after=-10&before=0&points=5&rows=0:19&format=csv");
  ASSERT_TRUE(csv.ok);
  EXPECT_EQ(csv.status, 200);
  EXPECT_EQ(csv.body.substr(0, 8), "t,value\n");
  server.Stop();
}

// Text and CSV bodies are written with std::to_chars; each must equal
// what default `std::ostream << value` formatting makes of the same
// executor values.
TEST_F(ServerTest, TextAndCsvBodiesMatchOstreamFormatting) {
  QueryServer server(executor_, model_);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  for (const std::string group : {"col", "row"}) {
    const std::string query = "SELECT avg(value) GROUP BY " + group;
    const ClientResponse text =
        client.Get("/api/v1/query?q=SELECT+avg(value)+GROUP+BY+" + group);
    ASSERT_TRUE(text.ok);
    EXPECT_EQ(text.status, 200) << text.body;
    EXPECT_EQ(text.body, CliText(query)) << query;
  }

  const std::map<std::string, std::string> params = {
      {"after", "-40"}, {"before", "0"}, {"points", "41"},
      {"rows", "3:90"}, {"group", "avg"}};
  auto resolved = ResolveDataRequest(params, executor_->rows(),
                                     executor_->cols(), DataApiLimits{});
  TSC_CHECK_OK(resolved.status());
  auto result = ExecuteDataRequest(*executor_, *resolved);
  TSC_CHECK_OK(result.status());
  std::ostringstream reference;
  reference << "t,value\n";
  for (const DataPoint& point : result->data) {
    reference << point.t << "," << point.value << "\n";
  }
  const ClientResponse csv = client.Get(
      "/api/v1/data?after=-40&before=0&points=41&rows=3:90&group=avg"
      "&format=csv");
  ASSERT_TRUE(csv.ok);
  EXPECT_EQ(csv.status, 200) << csv.body;
  EXPECT_EQ(csv.body, reference.str());
  server.Stop();
}

/// The model behind a gate: region reads (a scan query's) wait until the
/// test opens the gate, so one request holds the server's execution slot
/// for exactly as long as the test wants.
class GatedStore final : public CompressedStore {
 public:
  explicit GatedStore(const SvddModel* model) : model_(model) {}

  std::size_t rows() const override { return model_->rows(); }
  std::size_t cols() const override { return model_->cols(); }
  double ReconstructCell(std::size_t row, std::size_t col) const override {
    return model_->ReconstructCell(row, col);
  }
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      changed_.notify_all();
      changed_.wait(lock, [this] { return open_; });
    }
    return model_->ReconstructRegion(row_ids, col_ids, out);
  }
  std::uint64_t CompressedBytes() const override {
    return model_->CompressedBytes();
  }
  std::string MethodName() const override { return "gated"; }

  /// Blocks until a region read waits at the closed gate.
  void WaitForHolder() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return entered_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }

 private:
  const SvddModel* model_;
  mutable std::mutex mu_;
  mutable std::condition_variable changed_;
  mutable int entered_ = 0;
  mutable bool open_ = false;
};

/// Value of a process counter, for before/after deltas.
std::uint64_t CounterValue(const std::string& name) {
  return obs::MetricRegistry::Default().GetCounter(name).Value();
}

TEST_F(ServerTest, AdmissionShedsWith429UnderSaturation) {
  const std::uint64_t rejected_before = CounterValue("server.rejected");
  const std::uint64_t timeouts_before = CounterValue("server.queue_timeouts");
  GatedStore gated(model_);
  const QueryExecutor executor(&gated);
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;  // no queue: any overlap is shed
  QueryServer server(&executor, &gated, options);
  ASSERT_TRUE(server.Start().ok());

  // A scan query, so its execution reads regions through the gate.
  const std::string target = "/api/v1/query?q=SELECT+stddev(value)";
  const std::string expected = CliText("SELECT stddev(value)");
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> wrong_count{0};
  const auto tally = [&](const ClientResponse& response) {
    if (!response.ok) {
      ++wrong_count;
    } else if (response.status == 200) {
      if (response.body == expected) {
        ++ok_count;
      } else {
        ++wrong_count;
      }
    } else if (response.status == 429) {
      ++shed_count;
    } else {
      ++wrong_count;
    }
  };
  // One request takes the single slot and holds it at the gate.
  std::thread holder([&] {
    TestClient client(server.port());
    tally(client.Get(target));
  });
  gated.WaitForHolder();
  // While it holds the slot, every other request is shed.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TestClient client(server.port());
      for (int i = 0; i < kRequestsPerThread; ++i) tally(client.Get(target));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shed_count.load(), kThreads * kRequestsPerThread);
  // The held request completes once released, and the freed slot serves.
  gated.Open();
  holder.join();
  {
    TestClient client(server.port());
    for (int i = 0; i < 3; ++i) tally(client.Get(target));
  }
  server.Stop();

  // Every response is either correct or an explicit shed.
  EXPECT_EQ(wrong_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(shed_count.load(), 0);
#ifndef TSC_OBS_DISABLED
  // The shed counter counts exactly the 429s; nothing waited in a queue.
  EXPECT_EQ(CounterValue("server.rejected") - rejected_before,
            static_cast<std::uint64_t>(shed_count.load()));
  EXPECT_EQ(CounterValue("server.queue_timeouts"), timeouts_before);
#endif
}

TEST_F(ServerTest, AdmissionTimesOutQueuedRequestsWith504) {
  const std::uint64_t rejected_before = CounterValue("server.rejected");
  const std::uint64_t timeouts_before = CounterValue("server.queue_timeouts");
  GatedStore gated(model_);
  const QueryExecutor executor(&gated);
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 1;
  QueryServer server(&executor, &gated, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string target = "/api/v1/query?q=SELECT+stddev(value)";
  int holder_status = 0;
  std::thread holder([&] {
    TestClient client(server.port());
    holder_status = client.Get(target).status;
  });
  gated.WaitForHolder();
  // While the slot is held, each request waits in the one queue place
  // until its deadline passes.
  constexpr int kQueued = 3;
  int timed_out = 0;
  {
    TestClient client(server.port());
    for (int i = 0; i < kQueued; ++i) {
      const ClientResponse response = client.Get(target + "&timeout_ms=20");
      if (response.ok && response.status == 504) ++timed_out;
    }
  }
  gated.Open();
  holder.join();
  server.Stop();

  EXPECT_EQ(timed_out, kQueued);
  EXPECT_EQ(holder_status, 200);
#ifndef TSC_OBS_DISABLED
  // The timeout counter counts exactly the 504s; nothing was shed.
  EXPECT_EQ(CounterValue("server.queue_timeouts") - timeouts_before,
            static_cast<std::uint64_t>(timed_out));
  EXPECT_EQ(CounterValue("server.rejected"), rejected_before);
#endif
}

TEST(AdmissionControllerTest, AdmitsQueuesRejectsAndTimesOut) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 1;
  AdmissionController admission(options);

  AdmissionController::Permit first;
  ASSERT_EQ(admission.Acquire(std::chrono::steady_clock::now(), &first),
            AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(admission.active(), 1u);

  // The slot is busy and the deadline is already past: queued then
  // timed out.
  AdmissionController::Permit late;
  EXPECT_EQ(admission.Acquire(
                std::chrono::steady_clock::now() + std::chrono::milliseconds(5),
                &late),
            AdmissionController::Outcome::kTimedOut);
  EXPECT_FALSE(late.held());

  // Fill the queue from another thread, then a third caller is shed.
  std::atomic<bool> queued_done{false};
  std::thread queued([&] {
    AdmissionController::Permit permit;
    const auto outcome = admission.Acquire(
        std::chrono::steady_clock::now() + std::chrono::seconds(5), &permit);
    EXPECT_EQ(outcome, AdmissionController::Outcome::kAdmitted);
    queued_done.store(true);
  });
  while (admission.queued() == 0 && !queued_done.load()) {
    std::this_thread::yield();
  }
  AdmissionController::Permit shed;
  EXPECT_EQ(admission.Acquire(
                std::chrono::steady_clock::now() + std::chrono::seconds(5),
                &shed),
            AdmissionController::Outcome::kRejected);

  // Releasing the slot admits the queued waiter.
  first.Release();
  queued.join();
  EXPECT_TRUE(queued_done.load());

  admission.Shutdown();
  AdmissionController::Permit after_shutdown;
  EXPECT_EQ(admission.Acquire(std::chrono::steady_clock::now(),
                              &after_shutdown),
            AdmissionController::Outcome::kShutdown);
}

// A model file cut short under a running disk-layout server: the aggregates
// whose ragged end rows can no longer be read answer HTTP 500 with the
// read error, never a 200 carrying NaN.
TEST_F(ServerTest, DiskReadErrorsOnTheCompressedPathAreHttp500) {
  for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{4}}) {
    const std::string path = ::testing::TempDir() + "/server_read_error_" +
                             std::to_string(cache_blocks) + ".model";
    ASSERT_TRUE(model_->SaveToFile(path).ok());
    DiskBackedOptions disk_options;
    disk_options.cache_blocks = cache_blocks;
    auto store = DiskBackedStore::Open(path, disk_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const SvddModel& served = store->model();
    const QueryExecutor executor(&served);
    QueryServer server(&executor, &served);
    ASSERT_TRUE(server.Start().ok());
    std::filesystem::resize_file(path, 16);
    {
      TestClient client(server.port());
      ASSERT_TRUE(client.connected());
      for (const char* target :
           {"/api/v1/query?q=SELECT+sum(value)+WHERE+row+IN+3:70+GROUP+BY+col"
            "&format=json",
            "/api/v1/query?q=SELECT+sum(value)+WHERE+row+IN+3:70+GROUP+BY+row"
            "&format=json",
            "/api/v1/query?q=SELECT+max(value)+WHERE+row+IN+3:70&format=json",
            "/api/v1/query?q=SELECT+max(value)+WHERE+row+IN+5&format=json",
            "/api/v1/data?group=avg&rows=3:70&points=4",
            "/api/v1/data?group=max&rows=3:70",
            "/api/v1/cell?row=5&col=0"}) {
        const ClientResponse response = client.Get(target);
        ASSERT_TRUE(response.ok) << target;
        EXPECT_EQ(response.status, 500) << target << ": " << response.body;
        // JsonWriter writes a non-finite double as null.
        for (const char* leak : {"nan", "null"}) {
          EXPECT_EQ(response.body.find(leak), std::string::npos)
              << target << ": " << response.body;
        }
      }
    }
    server.Stop();
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace tsc::server
