#include "support/streaming_generator.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "linalg/svd.h"
#include "storage/row_store.h"
#include "util/stats.h"

namespace tsc {
namespace {

PhoneDatasetConfig SmallConfig() {
  PhoneDatasetConfig config;
  config.num_customers = 300;
  config.num_days = 60;
  config.seed = 9;
  return config;
}

TEST(StreamingGeneratorTest, RowsDeterministicAndIndependent) {
  const StreamingPhoneGenerator generator(SmallConfig());
  std::vector<double> a(60);
  std::vector<double> b(60);
  generator.FillRow(17, a);
  generator.FillRow(5, b);   // generating another row in between...
  generator.FillRow(17, b);  // ...must not change row 17
  EXPECT_EQ(a, b);
}

TEST(StreamingGeneratorTest, DifferentRowsDiffer) {
  const StreamingPhoneGenerator generator(SmallConfig());
  std::vector<double> a(60);
  std::vector<double> b(60);
  generator.FillRow(1, a);
  generator.FillRow(2, b);
  EXPECT_NE(a, b);
}

TEST(StreamingGeneratorTest, RowSourceStreamsAllRowsRepeatably) {
  GeneratedPhoneRowSource source(SmallConfig());
  EXPECT_EQ(source.rows(), 300u);
  EXPECT_EQ(source.cols(), 60u);
  std::vector<double> row(60);
  std::vector<double> first_pass_row7(60);
  ASSERT_TRUE(source.Reset().ok());
  std::size_t count = 0;
  for (;;) {
    const auto more = source.NextRow(row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (count == 7) std::copy(row.begin(), row.end(), first_pass_row7.begin());
    ++count;
  }
  EXPECT_EQ(count, 300u);
  // Second pass must reproduce the same rows (multi-pass contract).
  ASSERT_TRUE(source.Reset().ok());
  for (std::size_t i = 0; i <= 7; ++i) {
    ASSERT_TRUE(*source.NextRow(row));
  }
  EXPECT_EQ(row, first_pass_row7);
}

TEST(StreamingGeneratorTest, WriteToFileMatchesFillRow) {
  const StreamingPhoneGenerator generator(SmallConfig());
  const std::string path = ::testing::TempDir() + "/streamed_phone.mat";
  ASSERT_TRUE(generator.WriteToFile(path).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->rows(), 300u);
  std::vector<double> from_file(60);
  std::vector<double> from_generator(60);
  for (const std::size_t i : {0u, 123u, 299u}) {
    ASSERT_TRUE(reader->ReadRow(i, from_file).ok());
    generator.FillRow(i, from_generator);
    EXPECT_EQ(from_file, from_generator);
  }
}

TEST(StreamingGeneratorTest, StatisticalPropertiesMatchInMemory) {
  // Same structural knobs as GeneratePhoneDataset: low intrinsic rank and
  // heavy-tailed volumes. (Not bit-identical by design.)
  PhoneDatasetConfig config = SmallConfig();
  config.spike_probability = 0.0;
  config.noise_level = 0.05;
  GeneratedPhoneRowSource source(config);
  Matrix materialized(300, 60);
  ASSERT_TRUE(source.Reset().ok());
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(*source.NextRow(materialized.Row(i)));
  }
  const auto svd = TruncatedSvd(materialized, 60);
  ASSERT_TRUE(svd.ok());
  double total = 0.0;
  double top = 0.0;
  for (std::size_t i = 0; i < svd->rank(); ++i) {
    const double e = svd->singular_values[i] * svd->singular_values[i];
    total += e;
    if (i < 10) top += e;
  }
  EXPECT_GT(top / total, 0.9);
}

TEST(StreamingGeneratorTest, SvddBuildsDirectlyFromGenerator) {
  // End-to-end: 3-pass build with no materialized matrix and no file.
  GeneratedPhoneRowSource source(SmallConfig());
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(source.passes_started(), 3u);
  EXPECT_EQ(model->rows(), 300u);
  // Spot-check reconstruction quality against regenerated rows.
  const StreamingPhoneGenerator& generator = source.generator();
  std::vector<double> truth(60);
  RunningStats err;
  RunningStats mag;
  for (std::size_t i = 0; i < 300; i += 10) {
    generator.FillRow(i, truth);
    for (std::size_t j = 0; j < 60; ++j) {
      err.Add(std::abs(model->ReconstructCell(i, j) - truth[j]));
      mag.Add(std::abs(truth[j]));
    }
  }
  EXPECT_LT(err.mean(), 0.2 * mag.mean());
}

}  // namespace
}  // namespace tsc
