// Tests for the batched off-line update path (fold-in appends, cell
// patches) and the f32 storage mode.

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

TEST(MatrixAppendTest, AppendRows) {
  Matrix a = Matrix::FromRows({{1, 2}});
  const Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  a.AppendRows(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a(2, 1), 6.0);
  Matrix empty;
  empty.AppendRows(b);
  EXPECT_EQ(empty.rows(), 2u);
  a.AppendRows(Matrix(0, 0));
  EXPECT_EQ(a.rows(), 3u);
}

TEST(FoldInTest, AppendedRowsBecomeQueryable) {
  const Dataset d = GenerateLowRankDataset(50, 12, 3, 1);
  const Matrix base = d.values.TopRows(40);
  Matrix extra(10, 12);
  for (std::size_t i = 0; i < 10; ++i) {
    std::copy(d.values.Row(40 + i).begin(), d.values.Row(40 + i).end(),
              extra.Row(i).begin());
  }
  MatrixRowSource source(&base);
  SvdBuildOptions options;
  options.k = 3;
  auto model = BuildSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->rows(), 40u);

  const SvdModel::FoldInStats stats = model->FoldInRows(extra);
  EXPECT_EQ(stats.rows_added, 10u);
  EXPECT_EQ(model->rows(), 50u);
  // Same low-rank patterns: the frozen subspace captures ~everything,
  // so the folded rows reconstruct accurately.
  EXPECT_GT(stats.CaptureRatio(), 0.99);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(model->ReconstructCell(40 + i, j), extra(i, j),
                  1e-6 * std::max(1.0, std::abs(extra(i, j))));
    }
  }
}

TEST(FoldInTest, NovelPatternsLowerCaptureRatio) {
  const Dataset d = GenerateLowRankDataset(60, 16, 2, 2);
  MatrixRowSource source(&d.values);
  SvdBuildOptions options;
  options.k = 2;
  auto model = BuildSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  // Rows orthogonal-ish to the learned patterns: random noise.
  Rng rng(9);
  Matrix novel(5, 16);
  for (auto& v : novel.data()) v = rng.Gaussian();
  const SvdModel::FoldInStats stats = model->FoldInRows(novel);
  EXPECT_LT(stats.CaptureRatio(), 0.8);  // rebuild advisable
}

TEST(FoldInTest, SvddDelegation) {
  PhoneDatasetConfig config;
  config.num_customers = 100;
  config.num_days = 20;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::size_t before = model->rows();
  Matrix extra(3, 20);
  for (std::size_t j = 0; j < 20; ++j) extra(0, j) = x(0, j);
  const auto stats = model->FoldInRows(extra);
  EXPECT_EQ(stats.rows_added, 3u);
  EXPECT_EQ(model->rows(), before + 3);
}

TEST(PatchCellTest, MakesCellExact) {
  PhoneDatasetConfig config;
  config.num_customers = 80;
  config.num_days = 16;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const double corrected = 12345.5;
  ASSERT_TRUE(model->PatchCell(3, 7, corrected).ok());
  EXPECT_NEAR(model->ReconstructCell(3, 7), corrected, 1e-9);
  // Re-patching overwrites.
  ASSERT_TRUE(model->PatchCell(3, 7, 1.0).ok());
  EXPECT_NEAR(model->ReconstructCell(3, 7), 1.0, 1e-9);
  // Out of range rejected.
  EXPECT_FALSE(model->PatchCell(80, 0, 0.0).ok());
  EXPECT_FALSE(model->PatchCell(0, 16, 0.0).ok());
}

TEST(PatchCellTest, InsertsNewDeltaCells) {
  // Patching a cell that holds no delta adds one: the patched value
  // reads back, the delta count and packed bytes grow by one entry, and
  // the patch survives a save and load.
  PhoneDatasetConfig config;
  config.num_customers = 120;
  config.num_days = 24;
  config.spike_probability = 0.01;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  // Pick a cell that is NOT already an outlier.
  std::size_t i = 0;
  std::size_t j = 0;
  while (model->deltas()->Find(i, j).has_value()) {
    j = (j + 1) % 24;
    if (j == 0) ++i;
  }
  const std::size_t before = model->delta_count();
  const std::uint64_t bytes_before = model->CompressedBytes();
  ASSERT_TRUE(model->PatchCell(i, j, 999.0).ok());
  EXPECT_NEAR(model->ReconstructCell(i, j), 999.0, 1e-9);
  EXPECT_EQ(model->delta_count(), before + 1);
  EXPECT_EQ(model->CompressedBytes(),
            bytes_before + DeltaIndex::kPackedEntryBytes);
  const std::string path = ::testing::TempDir() + "/patched.model";
  ASSERT_TRUE(model->SaveToFile(path).ok());
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ReconstructCell(i, j), model->ReconstructCell(i, j));
  EXPECT_EQ(loaded->delta_count(), before + 1);
}

TEST(QuantizedStorageTest, SvddFloatModeKeepsOutliersNearExact) {
  PhoneDatasetConfig config;
  config.num_customers = 150;
  config.num_days = 30;
  config.spike_probability = 0.01;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  // At 10% an f32 U row (16-byte meta + codes) leaves no room for k=1.
  options.space_percent = 20.0;
  options.quant = QuantScheme::kF32;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  // Outlier cells reconstruct to float accuracy or better against the
  // f32 U (the deltas were re-derived post-quantization).
  model->deltas()->ForEach([&](std::size_t i, std::size_t j, double) {
    const double rel =
        std::abs(model->ReconstructCell(i, j) - x(i, j)) /
        std::max(1.0, std::abs(x(i, j)));
    EXPECT_LT(rel, 1e-5);
  });
}

}  // namespace
}  // namespace tsc
