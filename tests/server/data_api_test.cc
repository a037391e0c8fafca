#include "server/data_api.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "../query/scan_only_store.h"

namespace tsc::server {
namespace {

using Params = std::map<std::string, std::string>;

class DataApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PhoneDatasetConfig config;
    config.num_customers = 120;
    config.num_days = 60;
    data_ = new Matrix(GeneratePhoneDataset(config).values);
    MatrixRowSource source(data_);
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
    delete data_;
  }

  static Matrix* data_;
  static SvddModel* model_;
  static QueryExecutor* executor_;
};

Matrix* DataApiTest::data_ = nullptr;
SvddModel* DataApiTest::model_ = nullptr;
QueryExecutor* DataApiTest::executor_ = nullptr;

TEST(ParseRowsParamTest, AcceptsRangesAndSingles) {
  auto ranges = ParseRowsParam("0:9,15,20:21", 100, 64);
  ASSERT_TRUE(ranges.ok()) << ranges.status().ToString();
  ASSERT_EQ(ranges->size(), 3u);
  EXPECT_EQ((*ranges)[0].lo, 0u);
  EXPECT_EQ((*ranges)[0].hi, 9u);
  EXPECT_EQ((*ranges)[1].lo, 15u);
  EXPECT_EQ((*ranges)[1].hi, 15u);
}

TEST(ParseRowsParamTest, RejectsHostileSelections) {
  EXPECT_FALSE(ParseRowsParam("", 100, 64).ok());
  EXPECT_FALSE(ParseRowsParam("0:99999999", 100, 64).ok());  // oversized
  EXPECT_FALSE(ParseRowsParam("100", 100, 64).ok());         // == num_rows
  EXPECT_FALSE(ParseRowsParam("9:1", 100, 64).ok());         // lo > hi
  EXPECT_FALSE(ParseRowsParam("1:2:3", 100, 64).ok());       // garbage
  EXPECT_FALSE(ParseRowsParam("abc", 100, 64).ok());
  EXPECT_FALSE(ParseRowsParam("5x", 100, 64).ok());          // trailing junk
  EXPECT_FALSE(ParseRowsParam("-3", 100, 64).ok());          // negative
  EXPECT_FALSE(ParseRowsParam("1,2,3,4,5", 100, 4).ok());    // over the cap
}

TEST(ResolveRowsPatternTest, MatchesAndCoalescesConsecutiveKeys) {
  const std::vector<std::string> keys = {"web-a", "web-b", "db-a",
                                         "web-c", "db-b"};
  auto ranges = ResolveRowsPattern("^web", keys, keys.size());
  ASSERT_TRUE(ranges.ok()) << ranges.status().ToString();
  // web-a, web-b coalesce into 0:1; web-c stands alone at 3.
  ASSERT_EQ(ranges->size(), 2u);
  EXPECT_EQ((*ranges)[0].lo, 0u);
  EXPECT_EQ((*ranges)[0].hi, 1u);
  EXPECT_EQ((*ranges)[1].lo, 3u);
  EXPECT_EQ((*ranges)[1].hi, 3u);

  // Searched anywhere in the key, not anchored.
  ranges = ResolveRowsPattern("-a$", keys, keys.size());
  ASSERT_TRUE(ranges.ok());
  ASSERT_EQ(ranges->size(), 2u);
  EXPECT_EQ((*ranges)[0].lo, 0u);
  EXPECT_EQ((*ranges)[1].lo, 2u);

  // Every key matches: one full range.
  ranges = ResolveRowsPattern(".", keys, keys.size());
  ASSERT_TRUE(ranges.ok());
  ASSERT_EQ(ranges->size(), 1u);
  EXPECT_EQ((*ranges)[0].lo, 0u);
  EXPECT_EQ((*ranges)[0].hi, 4u);
}

TEST(ResolveRowsPatternTest, RejectsHostilePatterns) {
  const std::vector<std::string> keys = {"web-a", "web-b"};
  EXPECT_FALSE(ResolveRowsPattern("zzz", keys, 2).ok());  // no match
  EXPECT_FALSE(ResolveRowsPattern("[", keys, 2).ok());    // bad regex
  EXPECT_FALSE(ResolveRowsPattern("(unclosed", keys, 2).ok());
  EXPECT_FALSE(
      ResolveRowsPattern(std::string(300, 'a'), keys, 2).ok());  // too long
}

TEST(ResolveRowsPatternTest, CatastrophicPatternStaysLinear) {
  // `(a+)+$` against keys of a's ending in 'b' is the classic
  // exponential-backtracking bomb; the linear-time engine must chew
  // through it instantly (a backtracking engine would hang the test
  // for longer than the heat death of the CI machine).
  std::vector<std::string> keys(64, std::string(128, 'a') + "b");
  keys.push_back(std::string(128, 'a'));  // one real match at the end
  auto ranges = ResolveRowsPattern("(a+)+$", keys, keys.size());
  ASSERT_TRUE(ranges.ok()) << ranges.status().ToString();
  ASSERT_EQ(ranges->size(), 1u);
  EXPECT_EQ((*ranges)[0].lo, 64u);
  EXPECT_EQ((*ranges)[0].hi, 64u);
}

TEST(ResolveRowsPatternTest, IgnoresSurplusKeysBeyondNumRows) {
  // An oversized key map must not mint indices >= num_rows: a pattern
  // matching both a real and a surplus key returns the real rows.
  const std::vector<std::string> keys = {"web-a", "db-a", "web-surplus"};
  auto ranges = ResolveRowsPattern("^web", keys, 2);
  ASSERT_TRUE(ranges.ok()) << ranges.status().ToString();
  ASSERT_EQ(ranges->size(), 1u);
  EXPECT_EQ((*ranges)[0].lo, 0u);
  EXPECT_EQ((*ranges)[0].hi, 0u);

  // A pattern matching only surplus keys selects nothing.
  EXPECT_FALSE(ResolveRowsPattern("surplus", keys, 2).ok());
}

TEST(ResolveDataRequestTest, RowsPatternNeedsTheKeyMap) {
  const std::vector<std::string> keys = {"web-a", "web-b", "db-a"};
  // With a key map the ~pattern form resolves like an index selection.
  auto request = ResolveDataRequest(Params{{"rows", "~^web"}}, 3, 50,
                                    DataApiLimits{}, &keys);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(request->rows.size(), 1u);
  EXPECT_EQ(request->rows[0].lo, 0u);
  EXPECT_EQ(request->rows[0].hi, 1u);

  // Without one (or with a short one) it is a client error.
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"rows", "~^web"}}, 3, 50, DataApiLimits{})
          .ok());
  EXPECT_FALSE(ResolveDataRequest(Params{{"rows", "~^web"}}, 5, 50,
                                  DataApiLimits{}, &keys)
                   .ok());  // 3 keys for 5 rows

  // Index selections never consult the key map.
  request = ResolveDataRequest(Params{{"rows", "0:1"}}, 3, 50,
                               DataApiLimits{}, &keys);
  EXPECT_TRUE(request.ok());
}

TEST(ResolveDataRequestTest, DefaultsToTheWholeMatrix) {
  auto request = ResolveDataRequest(Params{}, 100, 50, DataApiLimits{});
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->after, 0u);
  EXPECT_EQ(request->before, 49u);
  EXPECT_EQ(request->points, 50u);
  EXPECT_EQ(request->group, AggregateFn::kAvg);
  EXPECT_TRUE(request->rows.empty());
}

TEST(ResolveDataRequestTest, ResolvesRelativeWindows) {
  // netdata idiom: the last 20 columns ending at "now".
  auto request = ResolveDataRequest(
      Params{{"after", "-20"}, {"before", "0"}}, 100, 50, DataApiLimits{});
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->after, 30u);
  EXPECT_EQ(request->before, 49u);

  // before relative to the newest column; after clamps at zero.
  request = ResolveDataRequest(
      Params{{"after", "-1000"}, {"before", "-5"}}, 100, 50, DataApiLimits{});
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->after, 0u);
  EXPECT_EQ(request->before, 44u);
}

TEST(ResolveDataRequestTest, RejectsBadWindowsPointsAndGroups) {
  const DataApiLimits limits;
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"before", "50"}}, 100, 50, limits).ok());
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"after", "40"}, {"before", "10"}}, 100, 50,
                         limits)
          .ok());
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"after", "abc"}}, 100, 50, limits).ok());
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"points", "1000000"}}, 100, 50, limits)
          .ok());
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"group", "stddev"}}, 100, 50, limits).ok());
  EXPECT_FALSE(
      ResolveDataRequest(Params{{"group", "nope"}}, 100, 50, limits).ok());
  // A window wider than max_points without downsampling must be refused.
  DataApiLimits tight;
  tight.max_points = 10;
  EXPECT_FALSE(ResolveDataRequest(Params{}, 100, 50, tight).ok());
  EXPECT_TRUE(
      ResolveDataRequest(Params{{"points", "5"}}, 100, 50, tight).ok());
}

TEST_F(DataApiTest, BucketsMatchDirectRegionQueries) {
  // 40-column window, 8 buckets of 5 columns: every bucket value must
  // equal the same aggregate computed by an independent region query.
  for (const std::string group : {"avg", "sum", "min", "max"}) {
    auto resolved = ResolveDataRequest(
        Params{{"after", "10"}, {"before", "49"}, {"points", "8"},
               {"group", group}, {"rows", "0:59,80:99"}},
        executor_->rows(), executor_->cols(), DataApiLimits{});
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    auto result = ExecuteDataRequest(*executor_, *resolved);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->data.size(), 8u);
    EXPECT_EQ(result->rows_selected, 80u);
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t lo = 10 + b * 5;
      const std::size_t hi = lo + 4;
      EXPECT_EQ(result->data[b].t, lo);
      std::ostringstream sql;
      sql << "SELECT " << group << "(value) WHERE row IN 0:59,80:99 AND "
          << "col IN " << lo << ":" << hi;
      auto direct = executor_->Execute(sql.str());
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_NEAR(result->data[b].value, direct->values[0],
                  1e-6 * (1.0 + std::abs(direct->values[0])))
          << group << " bucket " << b;
    }
  }
}

TEST_F(DataApiTest, OverlappingRowRangesCountOnce) {
  auto resolved = ResolveDataRequest(
      Params{{"rows", "0:49,25:74"}, {"points", "4"}}, executor_->rows(),
      executor_->cols(), DataApiLimits{});
  ASSERT_TRUE(resolved.ok());
  auto result = ExecuteDataRequest(*executor_, *resolved);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_selected, 75u);
}

TEST_F(DataApiTest, SumAndAvgRunInTheCompressedDomain) {
  auto resolved = ResolveDataRequest(
      Params{{"group", "sum"}, {"points", "6"}}, executor_->rows(),
      executor_->cols(), DataApiLimits{});
  ASSERT_TRUE(resolved.ok());
  auto result = ExecuteDataRequest(*executor_, *resolved);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->compressed_domain_aggregates, 0u);
}

/// Compressed-domain sum/avg buckets (row mass from the block sums) at 1
/// and 3 threads against the scan executor over the same model, for
/// every U encoding.
TEST(DataApiScanParityTest, SumAndAvgMatchTheScanExecutorForEveryScheme) {
  PhoneDatasetConfig config;
  config.num_customers = 150;
  config.num_days = 48;
  config.spike_probability = 0.04;
  const Matrix data = GeneratePhoneDataset(config).values;
  for (const QuantScheme scheme : {QuantScheme::kF64, QuantScheme::kF32,
                                   QuantScheme::kI16, QuantScheme::kI8}) {
    MatrixRowSource source(&data);
    SvddBuildOptions options;
    options.space_percent = 25.0;
    options.quant = scheme;
    auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const QueryExecutor serial(&*model);
    const QueryExecutor threaded(&*model, 3);
    const ScanOnlyStore scan_store(&*model);
    const QueryExecutor scan(&scan_store);
    for (const char* group : {"sum", "avg"}) {
      for (const char* rows : {"0:149", "17", "0:9,40:99,110", "63:129"}) {
        const Params params{{"group", group}, {"rows", rows},
                            {"points", "7"}};
        auto resolved = ResolveDataRequest(params, scan.rows(), scan.cols(),
                                           DataApiLimits{});
        ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
        auto want = ExecuteDataRequest(scan, *resolved);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(want->compressed_domain_aggregates, 0u);
        for (const QueryExecutor* executor : {&serial, &threaded}) {
          auto got = ExecuteDataRequest(*executor, *resolved);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got->compressed_domain_aggregates, 1u);
          ASSERT_EQ(got->data.size(), want->data.size());
          for (std::size_t b = 0; b < want->data.size(); ++b) {
            EXPECT_EQ(got->data[b].t, want->data[b].t);
            EXPECT_NEAR(got->data[b].value, want->data[b].value,
                        1e-7 * std::abs(want->data[b].value) + 1e-8)
                << QuantSchemeName(scheme) << " " << group << " rows "
                << rows << " bucket " << b;
          }
        }
      }
    }
  }
}

TEST_F(DataApiTest, SerializationsCarryEveryPoint) {
  auto resolved = ResolveDataRequest(
      Params{{"points", "5"}, {"rows", "0:9"}}, executor_->rows(),
      executor_->cols(), DataApiLimits{});
  ASSERT_TRUE(resolved.ok());
  auto result = ExecuteDataRequest(*executor_, *resolved);
  ASSERT_TRUE(result.ok());

  const std::string json = DataResultToJson(*result);
  EXPECT_NE(json.find("\"labels\":[\"t\",\"value\"]"), std::string::npos);
  EXPECT_NE(json.find("\"points\":5"), std::string::npos);
  EXPECT_NE(json.find("\"rows_selected\":10"), std::string::npos);

  const std::string csv = DataResultToCsv(*result);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);  // header + 5 points
}

// The CSV and text bodies format doubles with std::to_chars; they must
// stay byte-identical to default `std::ostream << value` output, which
// is what `tsctool sql` prints.
TEST(DataApiFormatTest, CsvAndTextNumbersMatchDefaultOstream) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.0,      -0.0,      1.0,      -1.5,     0.1,         1.0 / 3.0,
      123456.0, 1234567.0, 123456.5, 999999.5, 1e-4,        1e-5,
      1.5e-5,   -2.5e-7,   1e21,     6.02e23,  1e300,       -1e-300,
      DBL_MAX,  DBL_MIN,   100.0,    1e6,      DBL_MIN / 7, inf,
      -inf,     nan,       -nan,
      std::numeric_limits<double>::denorm_min(),
  };
  DataResult result;
  std::string text;
  std::ostringstream csv_reference;
  std::ostringstream text_reference;
  csv_reference << "t,value\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t t = i * 1000003;
    result.data.push_back({t, values[i]});
    csv_reference << t << "," << values[i] << "\n";
    text_reference << values[i] << "\n";
    AppendDefaultFormat(values[i], &text);
    text += '\n';
  }
  EXPECT_EQ(DataResultToCsv(result), csv_reference.str());
  EXPECT_EQ(text, text_reference.str());
}

}  // namespace
}  // namespace tsc::server
