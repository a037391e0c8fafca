// The disk layout serves the same compressed domain as the in-memory
// model: its block sums are built at Open from the model file's decoded
// U rows, and a run's ragged end rows are read through the block cache.
// The file stores U as the rows the model decodes to (f64 rows, or the
// quantized rows' own codes and meta), so every linear aggregate, SQL or
// data API, must be byte-identical to the in-memory executor's, for
// every U encoding, b=4, cache size, I/O backend and thread count. A
// failed U-row read on that path must come back as a Status, never a
// number.
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "server/data_api.h"
#include "storage/row_source.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace tsc {
namespace {

using server::DataApiLimits;
using server::DataResultToJson;
using server::ExecuteDataRequest;
using server::ResolveDataRequest;
using Params = std::map<std::string, std::string>;

// 8300 rows: not a multiple of 64, and past two 4096-row superblocks, so
// the selections below straddle block and superblock edges and end in a
// short last block.
constexpr std::size_t kRows = 8300;
constexpr std::size_t kCols = 24;

Matrix ParityData() {
  PhoneDatasetConfig config;
  config.num_customers = kRows;
  config.num_days = kCols;
  config.spike_probability = 0.02;
  return GeneratePhoneDataset(config).values;
}

SvddModel BuildModel(const Matrix& data, QuantScheme quant,
                     std::size_t bytes_per_value) {
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  options.quant = quant;
  options.bytes_per_value = bytes_per_value;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

/// The server's format=json fields for a SQL answer, minus exec_us.
std::string SqlBody(const QueryResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("values").BeginArray();
  for (const double value : result.values) json.Value(value);
  json.EndArray();
  json.Key("group_keys").BeginArray();
  for (const std::size_t key : result.group_keys) {
    json.Value(static_cast<std::uint64_t>(key));
  }
  json.EndArray();
  json.KV("compressed_domain_aggregates",
          result.compressed_domain_aggregates);
  json.EndObject();
  return json.str();
}

std::vector<std::string> ParitySql() {
  const std::string last = std::to_string(kRows - 1);
  const std::vector<std::string> rows = {
      "3:70",      "64:127",        "60:4100",
      "0:" + last, "4000:8200",     "8191:" + last,
      "17",        "63:64,127:128,4095:4097,4159:8255"};
  const std::vector<std::string> cols = {"0:23", "2:9,15"};
  std::vector<std::string> sql;
  for (const std::string& r : rows) {
    for (const std::string& c : cols) {
      for (const char* group : {"", " group by row", " group by col"}) {
        sql.push_back("select sum(value), avg(value), count(*) where row in " +
                      r + " and col in " + c + group);
      }
    }
  }
  return sql;
}

std::vector<Params> ParityDataParams() {
  std::vector<Params> requests;
  for (const char* group : {"sum", "avg"}) {
    for (const char* rows :
         {"3:70", "0:4200", "4095:8299", "1,63:65,8256:8299"}) {
      requests.push_back(
          {{"group", group}, {"rows", rows}, {"after", "1"}, {"before", "22"},
           {"points", "5"}});
    }
  }
  return requests;
}

std::string DataBody(const QueryExecutor& executor, const Params& params) {
  auto resolved = ResolveDataRequest(params, executor.rows(), executor.cols(),
                                     DataApiLimits{});
  TSC_CHECK_OK(resolved.status());
  auto result = ExecuteDataRequest(executor, *resolved);
  TSC_CHECK_OK(result.status());
  return DataResultToJson(*result);
}

struct ModelVariant {
  const char* name;
  QuantScheme quant;
  std::size_t bytes_per_value;
};

// Names the parameter in test listings (the default prints its bytes,
// pointer included).
void PrintTo(const ModelVariant& variant, std::ostream* out) {
  *out << variant.name;
}

class DiskParityTest : public ::testing::TestWithParam<ModelVariant> {};

TEST_P(DiskParityTest, LinearAggregatesMatchTheInMemoryModelByteForByte) {
  const Matrix data = ParityData();
  const SvddModel model =
      BuildModel(data, GetParam().quant, GetParam().bytes_per_value);
  const std::string path = ::testing::TempDir() + "/disk_parity_" +
                           GetParam().name + ".model";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  const QueryExecutor memory(&model);
  const std::vector<std::string> sql = ParitySql();
  const std::vector<Params> data_params = ParityDataParams();
  std::vector<std::string> want_sql;
  for (const std::string& query : sql) {
    auto result = memory.Execute(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    ASSERT_EQ(result->compressed_domain_aggregates, 3u) << query;
    want_sql.push_back(SqlBody(*result));
  }
  std::vector<std::string> want_data;
  for (const Params& params : data_params) {
    want_data.push_back(DataBody(memory, params));
  }

  for (const IoBackendKind backend :
       {IoBackendKind::kMmap, IoBackendKind::kPread}) {
    for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{3}}) {
      DiskBackedOptions options;
      options.io_backend = backend;
      options.cache_blocks = cache_blocks;
      obs::Counter& io_bytes =
          obs::MetricRegistry::Default().GetCounter("io.bytes_read");
      const std::uint64_t io_bytes_before = io_bytes.Value();
      auto store = DiskBackedStore::Open(path, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      // Open's pass over the model file is not a serving read: no disk
      // access, cache traffic or io.* bytes.
      EXPECT_EQ(store->disk_accesses(), 0u);
      EXPECT_EQ(store->cache_hits(), 0u);
      EXPECT_EQ(io_bytes.Value() - io_bytes_before, 0u);
      const DiskBackedStoreView view(&*store);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const QueryExecutor disk(&view, threads);
        ASSERT_NE(disk.rollup(), nullptr);
        const std::string where = std::string(IoBackendName(backend)) +
                                  " cache=" + std::to_string(cache_blocks) +
                                  " threads=" + std::to_string(threads);
        for (std::size_t q = 0; q < sql.size(); ++q) {
          auto result = disk.Execute(sql[q]);
          ASSERT_TRUE(result.ok()) << sql[q] << ": "
                                   << result.status().ToString();
          EXPECT_EQ(result->rows_reconstructed, 0u) << sql[q];
          EXPECT_EQ(SqlBody(*result), want_sql[q]) << where << " " << sql[q];
        }
        for (std::size_t d = 0; d < data_params.size(); ++d) {
          EXPECT_EQ(DataBody(disk, data_params[d]), want_data[d])
              << where << " data group=" << data_params[d].at("group")
              << " rows=" << data_params[d].at("rows");
        }
      }
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    EveryEncoding, DiskParityTest,
    ::testing::Values(ModelVariant{"f64", QuantScheme::kF64, 8},
                      ModelVariant{"f32", QuantScheme::kF32, 8},
                      ModelVariant{"i16", QuantScheme::kI16, 8},
                      ModelVariant{"i8", QuantScheme::kI8, 8},
                      ModelVariant{"b4", QuantScheme::kF64, 4}),
    [](const auto& info) { return std::string(info.param.name); });

/// A model file cut short after Open: the compressed path's ragged end rows
/// can no longer be read, and every linear aggregate that needs them must
/// fail with a Status under both cache settings.
TEST(DiskReadErrorTest, TruncatedUFileFailsTheCompressedPathWithAStatus) {
  PhoneDatasetConfig config;
  config.num_customers = 300;
  config.num_days = 24;
  const Matrix data = GeneratePhoneDataset(config).values;
  const SvddModel model = BuildModel(data, QuantScheme::kF64, 8);
  for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{4}}) {
    const std::string path = ::testing::TempDir() + "/disk_read_error_" +
                             std::to_string(cache_blocks) + ".model";
    ASSERT_TRUE(model.SaveToFile(path).ok());
    DiskBackedOptions options;
    options.io_backend = IoBackendKind::kPread;
    options.cache_blocks = cache_blocks;
    auto store = DiskBackedStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::filesystem::resize_file(path, 16);
    const SvddModel& served = store->model();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const QueryExecutor executor(&served, threads);
      for (const char* query :
           {"select sum(value) where row in 3:70 group by col",
            "select sum(value) where row in 3:70 group by row",
            "select sum(value), avg(value) where row in 3:70",
            "select max(value) where row in 3:70",
            "select max(value) where row in 5"}) {
        const auto result = executor.Execute(query);
        EXPECT_FALSE(result.ok())
            << query << " cache=" << cache_blocks << " threads=" << threads;
      }
      for (const Params& params :
           {Params{{"group", "avg"}, {"rows", "3:70"}, {"points", "4"}},
            Params{{"group", "max"}, {"rows", "3:70"}}}) {
        auto resolved = ResolveDataRequest(params, executor.rows(),
                                           executor.cols(), DataApiLimits{});
        ASSERT_TRUE(resolved.ok());
        EXPECT_FALSE(ExecuteDataRequest(executor, *resolved).ok())
            << params.at("group") << " cache=" << cache_blocks;
      }
    }
    EXPECT_FALSE(served.TryReconstructCell(5, 0).ok());
    std::vector<double> row(served.cols());
    EXPECT_FALSE(served.TryReconstructRow(5, row).ok());
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace tsc
