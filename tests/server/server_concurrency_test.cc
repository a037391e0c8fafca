// ThreadSanitizer hammer for the query server: many live connections
// sharing ONE executor over ONE disk-backed store — one BlockCache, one
// delta table — mixing every endpoint while the admission controller
// does its cross-thread work.
// Labeled server-tsan so both `ctest -L server` and the tsan preset
// (-L tsan) run it.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/row_source.h"
#include "tests/server/http_client.h"
#include "util/logging.h"

namespace tsc::server {
namespace {

using testing::ClientResponse;
using testing::TestClient;

/// Builds the hammer's 96 x 40 phone model and saves it to
/// `<TempDir>/<name>.model`, whose path it returns.
std::string SaveHammerModel(const std::string& name) {
  PhoneDatasetConfig config;
  config.num_customers = 96;
  config.num_days = 40;
  Matrix data = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&data);
  SvddBuildOptions build;
  build.space_percent = 25.0;
  auto model = BuildSvddModel(&source, build);
  TSC_CHECK_OK(model.status());
  const std::string path = ::testing::TempDir() + "/" + name + ".model";
  TSC_CHECK_OK(model->SaveToFile(path));
  return path;
}

TEST(ServerConcurrencyTest, EightConnectionsShareOneDiskBackedStore) {
  const std::string path = SaveHammerModel("server_hammer");
  DiskBackedOptions disk_options;
  disk_options.cache_blocks = 32;
  auto store = DiskBackedStore::Open(path, disk_options);
  TSC_CHECK_OK(store.status());
  const DiskBackedStoreView view(&*store);
  const QueryExecutor executor(&view);

  ServerOptions options;
  options.max_concurrent = 4;
  options.max_queue = 64;
  QueryServer server(&executor, &view, options);
  ASSERT_TRUE(server.Start().ok());

  // Expected answers computed once, before the hammer.
  const std::vector<std::string> queries = {
      "SELECT sum(value)",
      "SELECT avg(value) WHERE row IN 0:47",
      "SELECT max(value) WHERE col IN 0:9",
  };
  std::vector<std::string> expected_text;
  for (const std::string& query : queries) {
    auto result = executor.Execute(query);
    TSC_CHECK_OK(result.status());
    std::ostringstream out;
    for (const double value : result->values) out << value << "\n";
    expected_text.push_back(out.str());
  }
  std::vector<std::vector<double>> expected_cells(8);
  for (int t = 0; t < 8; ++t) {
    for (int i = 0; i < 4; ++i) {
      const std::size_t row =
          static_cast<std::size_t>(t * 11 + i * 3) % view.rows();
      const std::size_t col =
          static_cast<std::size_t>(t + i * 7) % view.cols();
      expected_cells[t].push_back(view.ReconstructCell(row, col));
    }
  }

  constexpr int kConnections = 8;
  constexpr int kRounds = 6;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kConnections; ++t) {
    clients.emplace_back([&, t] {
      TestClient client(server.port());
      if (!client.connected()) {
        ++wrong;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // SQL queries must match the single-threaded answer exactly.
        const std::size_t qi = static_cast<std::size_t>(t + round) % 3;
        std::string target = "/api/v1/query?q=" + queries[qi];
        for (char& c : target) {
          if (c == ' ') c = '+';
        }
        ClientResponse response = client.Get(target);
        // 429/504 are legitimate under saturation; wrong bytes are not.
        if (!response.ok ||
            (response.status == 200 && response.body != expected_text[qi])) {
          ++wrong;
        }

        // Cell probes against the shared store.
        const int i = round % 4;
        const std::size_t row =
            static_cast<std::size_t>(t * 11 + i * 3) % view.rows();
        const std::size_t col =
            static_cast<std::size_t>(t + i * 7) % view.cols();
        response = client.Get("/api/v1/cell?row=" + std::to_string(row) +
                              "&col=" + std::to_string(col));
        if (!response.ok) {
          ++wrong;
        } else if (response.status == 200) {
          // The JSON value round-trips: parse it back and require the
          // exact double the shared store reconstructs.
          const std::size_t value_pos = response.body.find("\"value\":");
          if (value_pos == std::string::npos ||
              std::strtod(response.body.c_str() + value_pos + 8, nullptr) !=
                  expected_cells[t][static_cast<std::size_t>(i)]) {
            ++wrong;
          }
        }

        // Windowed data queries and the control plane.
        response = client.Get("/api/v1/data?after=-16&before=0&points=4");
        if (!response.ok || (response.status != 200 &&
                             response.status != 429 &&
                             response.status != 504)) {
          ++wrong;
        }
        response = client.Get("/metrics");
        if (!response.ok || response.status != 200) ++wrong;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(server.connections_accepted(), 8u);
  std::remove(path.c_str());
}

/// Extracts `key=<uint64>` from an X-Query-Cost header value.
std::uint64_t CostField(const std::string& costs, const std::string& key) {
  const std::size_t pos = costs.find(key + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(costs.c_str() + pos + key.size() + 1, nullptr, 10);
}

// The accounting invariant behind X-Query-Cost: each charge helper sits
// directly beside the process-wide counter it mirrors, so the cost
// vectors of all concurrent requests must sum EXACTLY to the
// process-counter deltas — across 8 connections, the executor's scan
// pool and the shared block cache (including in-flight ride-alongs).
TEST(ServerConcurrencyTest, CostVectorsSumToProcessCountersUnderHammer) {
  const std::string path = SaveHammerModel("server_costsum");
  DiskBackedOptions disk_options;
  disk_options.cache_blocks = 16;  // small cache: misses and evictions
  auto store = DiskBackedStore::Open(path, disk_options);
  TSC_CHECK_OK(store.status());
  const DiskBackedStoreView view(&*store);
  const QueryExecutor executor(&view);

  ServerOptions options;
  options.max_concurrent = 4;
  options.max_queue = 64;
  QueryServer server(&executor, &view, options);
  ASSERT_TRUE(server.Start().ok());

  // The counter names each QueryCostVector field mirrors.
  const std::vector<std::pair<std::string, std::string>> kMirrors = {
      {"cache_hits", "block_cache.hits"},
      {"cache_misses", "block_cache.misses"},
      {"blocks_fetched", "storage.disk.accesses"},
      {"io_bytes", "io.bytes_read"},
      {"rows_scanned", "query.rows_scanned"},
      {"delta_probes", "delta.lookups"},
      {"rollup_hits", "agg.rollup_hits"},
      {"scan_fallbacks", "agg.scan_fallbacks"},
      {"agg_nodes_read", "agg.nodes_read"},
  };
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  std::vector<std::uint64_t> before;
  for (const auto& [field, counter] : kMirrors) {
    before.push_back(registry.GetCounter(counter).Value());
  }
  // serialize_us mirrors a histogram: its whole-µs records sum exactly.
  obs::Histogram& serialize_hist =
      registry.GetHistogram("request.serialize_us");
  const obs::Histogram::Summary serialize_before = serialize_hist.Snapshot();
  std::atomic<std::uint64_t> serialize_sum{0};
  std::atomic<std::uint64_t> answers{0};  // 200s: each wrote one body

  constexpr int kConnections = 8;
  constexpr int kRounds = 6;
  std::atomic<int> wrong{0};
  std::vector<std::atomic<std::uint64_t>> sums(kMirrors.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kConnections; ++t) {
    clients.emplace_back([&, t] {
      TestClient client(server.port());
      if (!client.connected()) {
        ++wrong;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const std::string trace =
            "c" + std::to_string(t) + "r" + std::to_string(round);
        const std::vector<std::string> headers = {"X-Trace-Id: " + trace};
        // stddev forces row reconstruction (sum/avg would legally run in
        // the compressed domain and charge no storage work); a max over
        // two row blocks runs the block-bound search, which charges only
        // the rows it reconstructs.
        std::vector<std::string> targets = {
            "/api/v1/query?q=SELECT+stddev(value)+WHERE+row+IN+" +
                std::to_string(t * 8) + ":" + std::to_string(t * 8 + 7) +
                "&debug=1",
            "/api/v1/query?q=SELECT+max(value)+WHERE+row+IN+" +
                std::to_string(t * 4) + ":" + std::to_string(t * 4 + 64) +
                "+GROUP+BY+col&debug=1",
            "/api/v1/data?after=-16&before=0&points=4&debug=1",
            "/api/v1/cell?row=" +
                std::to_string((t * 13 + round * 5) % view.rows()) +
                "&col=" + std::to_string((t + round * 3) % view.cols()) +
                "&debug=1",
        };
        for (const std::string& target : targets) {
          const ClientResponse response = client.Get(target, true, headers);
          if (!response.ok) {
            ++wrong;
            continue;
          }
          // Propagation: the id we sent must come back on every reply.
          if (response.Header("X-Trace-Id") != trace) ++wrong;
          const std::string costs = response.Header("X-Query-Cost");
          if (costs.empty()) {
            ++wrong;  // debug=1 must always attach the vector
            continue;
          }
          for (std::size_t f = 0; f < kMirrors.size(); ++f) {
            sums[f].fetch_add(CostField(costs, kMirrors[f].first),
                              std::memory_order_relaxed);
          }
          if (costs.find("serialize_us=") == std::string::npos) ++wrong;
          serialize_sum.fetch_add(CostField(costs, "serialize_us"),
                                  std::memory_order_relaxed);
          if (response.status == 200) {
            answers.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);
  for (std::size_t f = 0; f < kMirrors.size(); ++f) {
    const std::uint64_t process_delta =
        registry.GetCounter(kMirrors[f].second).Value() - before[f];
    EXPECT_EQ(sums[f].load(), process_delta)
        << kMirrors[f].first << " deltas do not sum to "
        << kMirrors[f].second;
  }
  const obs::Histogram::Summary serialize_after = serialize_hist.Snapshot();
  EXPECT_EQ(static_cast<double>(serialize_sum.load()),
            serialize_after.sum - serialize_before.sum)
      << "serialize_us deltas do not sum to request.serialize_us";
#ifndef TSC_OBS_DISABLED
  // The hammer did real attributable work; the invariant is not 0 == 0.
  EXPECT_GT(sums[4].load(), 0u);  // rows_scanned
  // One request.serialize_us record per answer body written.
  EXPECT_EQ(serialize_after.count - serialize_before.count, answers.load());
  EXPECT_GT(answers.load(), 0u);
#endif
  std::remove(path.c_str());
}

// Concurrent cell probes each pay for their own U-row read: every
// response's cost vector shows at least one block-cache probe, so no
// request's storage work is absorbed into another's.
TEST(ServerConcurrencyTest, EveryCellProbeReportsItsOwnStorageWork) {
  const std::string path = SaveHammerModel("server_cellcost");
  DiskBackedOptions disk_options;
  disk_options.cache_blocks = 32;
  auto store = DiskBackedStore::Open(path, disk_options);
  TSC_CHECK_OK(store.status());
  const DiskBackedStoreView view(&*store);
  const QueryExecutor executor(&view);

  constexpr int kConnections = 8;
  constexpr int kProbes = 16;
  ServerOptions options;
  options.max_concurrent = kConnections;  // every probe executes at once
  QueryServer server(&executor, &view, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> wrong{0};
  std::atomic<int> unattributed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kConnections; ++t) {
    clients.emplace_back([&, t] {
      TestClient client(server.port());
      if (!client.connected()) {
        ++wrong;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kProbes; ++i) {
        const std::size_t row =
            static_cast<std::size_t>(t * kProbes + i) % view.rows();
        const std::size_t col = static_cast<std::size_t>(t + i) % view.cols();
        const ClientResponse response =
            client.Get("/api/v1/cell?row=" + std::to_string(row) +
                       "&col=" + std::to_string(col) + "&debug=1");
        if (!response.ok || response.status != 200) {
          ++wrong;
          continue;
        }
        const std::size_t value_pos = response.body.find("\"value\":");
        if (value_pos == std::string::npos ||
            std::strtod(response.body.c_str() + value_pos + 8, nullptr) !=
                view.ReconstructCell(row, col)) {
          ++wrong;
        }
        const std::string costs = response.Header("X-Query-Cost");
        if (CostField(costs, "cache_hits") + CostField(costs, "cache_misses") <
            1) {
          ++unattributed;
        }
      }
    });
  }
  go.store(true);
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(unattributed.load(), 0)
      << "cell responses whose cost vector shows no storage work";
#endif
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsc::server
