// Full-pipeline integration test: streaming generation -> on-disk row
// store -> out-of-core 3-pass SVDD build -> checksummed model file ->
// serving layout export -> disk-backed and SQL queries. Everything a
// deployment would touch, in one flow, with no in-memory matrix of the
// full dataset on the serving side.

#include <cmath>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "data/streaming_generator.h"
#include "query/executor.h"
#include "storage/cached_row_reader.h"
#include "storage/row_store.h"
#include "util/logging.h"

namespace tsc {
namespace {

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kRows = 800;
  static constexpr std::size_t kCols = 90;

  void SetUp() override {
    config_.num_customers = kRows;
    config_.num_days = kCols;
    config_.seed = 2027;
    raw_path_ = ::testing::TempDir() + "/pipeline_raw.mat";
    const StreamingPhoneGenerator generator(config_);
    ASSERT_TRUE(generator.WriteToFile(raw_path_).ok());
  }

  PhoneDatasetConfig config_;
  std::string raw_path_;
};

TEST_F(PipelineIntegrationTest, EndToEnd) {
  // --- build from the file, out of core -------------------------------
  auto reader = RowStoreReader::Open(raw_path_);
  ASSERT_TRUE(reader.ok());
  FileRowSource source(std::move(*reader));
  SvddBuildOptions options;
  options.space_percent = 8.0;
  SvddBuildDiagnostics diag;
  auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(source.passes_started(), 3u);
  EXPECT_LE(model->SpacePercent(), 8.01);

  // --- model file round trip (checksummed) ----------------------------
  const std::string model_path = ::testing::TempDir() + "/pipeline_model.bin";
  ASSERT_TRUE(model->SaveToFile(model_path).ok());
  auto loaded = SvddModel::LoadFromFile(model_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->k(), model->k());

  // --- serving layout: the same file, U read row by row ----------------
  auto store = DiskBackedStore::Open(model_path);
  ASSERT_TRUE(store.ok());

  // Disk-backed cells agree with the in-memory model, 1 access each.
  const StreamingPhoneGenerator generator(config_);
  std::vector<double> truth(kCols);
  store->ResetCounters();
  for (const std::size_t i : {0u, 250u, 799u}) {
    generator.FillRow(i, truth);
    const auto cell = store->ReconstructCell(i, kCols / 2);
    ASSERT_TRUE(cell.ok());
    EXPECT_NEAR(*cell, loaded->ReconstructCell(i, kCols / 2), 1e-12);
  }
  EXPECT_EQ(store->disk_accesses(), 3u);

  // --- SQL over the loaded model ---------------------------------------
  const QueryExecutor executor(&*loaded);
  const auto result = executor.Execute(
      "SELECT sum(value), count(*) WHERE row IN 0:99 AND col BETWEEN 0 "
      "AND 6");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->values[1], 700.0);
  // Cross-check the sum against regenerated truth: approximate but sane.
  double exact_sum = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    generator.FillRow(i, truth);
    for (std::size_t j = 0; j <= 6; ++j) exact_sum += truth[j];
  }
  EXPECT_NEAR(result->values[0], exact_sum, 0.10 * std::abs(exact_sum));

  // --- buffer pool over the raw store -----------------------------------
  auto raw_again = RowStoreReader::Open(raw_path_);
  ASSERT_TRUE(raw_again.ok());
  CachedRowReader cached(std::move(*raw_again), /*capacity_blocks=*/8);
  std::vector<double> row(kCols);
  for (int repeat = 0; repeat < 5; ++repeat) {
    ASSERT_TRUE(cached.ReadRow(42, row).ok());
  }
  generator.FillRow(42, truth);
  EXPECT_EQ(row, truth);
  EXPECT_GT(cached.cache().HitRate(), 0.5);
}

}  // namespace
}  // namespace tsc
