#include "lib/ablation/row_outlier.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "data/generators.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

Matrix SpikyPhone(std::size_t n = 300, std::size_t m = 50) {
  PhoneDatasetConfig config;
  config.num_customers = n;
  config.num_days = m;
  config.spike_probability = 0.01;
  config.spike_scale = 20.0;
  config.seed = 33;
  return GeneratePhoneDataset(config).values;
}

TEST(RowOutlierTest, RespectsBudget) {
  const Matrix x = SpikyPhone();
  for (const double s : {10.0, 20.0}) {
    SvddBuildOptions options;
    options.space_percent = s;
    const auto model = BuildRowOutlierModel(x, options);
    ASSERT_TRUE(model.ok());
    EXPECT_LE(model->SpacePercent(), s * 1.01);
  }
}

TEST(RowOutlierTest, StoredRowsAreExact) {
  const Matrix x = SpikyPhone();
  SvddBuildOptions options;
  options.space_percent = 15.0;
  const auto model = BuildRowOutlierModel(x, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->stored_row_count(), 0u);
  std::size_t verified = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (!model->IsStoredRow(i)) continue;
    ++verified;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(model->ReconstructCell(i, j), x(i, j));
    }
  }
  EXPECT_EQ(verified, model->stored_row_count());
}

TEST(RowOutlierTest, RowReconstructionMatchesCells) {
  const Matrix x = SpikyPhone(100, 30);
  SvddBuildOptions options;
  options.space_percent = 15.0;
  const auto model = BuildRowOutlierModel(x, options);
  ASSERT_TRUE(model.ok());
  std::vector<double> row(30);
  for (const std::size_t i : {0u, 50u, 99u}) {
    model->ReconstructRow(i, row);
    for (std::size_t j = 0; j < 30; ++j) {
      EXPECT_EQ(row[j], model->ReconstructCell(i, j));
    }
  }
}

TEST(RowOutlierTest, CellDeltasBeatRowStorage) {
  // The paper's Section 4.2 rationale, quantified: spikes are isolated
  // cells inside otherwise-well-modeled rows, so a budget spent on cell
  // deltas repairs ~M/2 times more outliers than whole-row storage.
  const Matrix x = SpikyPhone(500, 60);
  SvddBuildOptions options;
  options.space_percent = 10.0;

  const auto rows_model = BuildRowOutlierModel(x, options);
  ASSERT_TRUE(rows_model.ok());
  MatrixRowSource source(&x);
  const auto svdd = BuildSvddModel(&source, options);
  ASSERT_TRUE(svdd.ok());

  const ErrorReport rows_report = EvaluateErrors(x, *rows_model);
  const ErrorReport svdd_report = EvaluateErrors(x, *svdd);
  EXPECT_LT(svdd_report.rmspe, rows_report.rmspe);
  EXPECT_LT(svdd_report.max_abs_error, rows_report.max_abs_error * 1.01);
}

TEST(RowOutlierTest, BytesAccounting) {
  const Matrix x = SpikyPhone(100, 30);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  const auto model = BuildRowOutlierModel(x, options);
  ASSERT_TRUE(model.ok());
  const std::uint64_t svd_bytes =
      (100u * model->k() + model->k() + model->k() * 30u) * 8u;
  EXPECT_EQ(model->CompressedBytes(),
            svd_bytes + model->stored_row_count() * (30u * 8u + 8u));
}

TEST(RowOutlierTest, TinyBudgetFails) {
  const Matrix x = SpikyPhone(2000, 40);
  SvddBuildOptions options;
  options.space_percent = 0.01;
  EXPECT_FALSE(BuildRowOutlierModel(x, options).ok());
}

TEST(RowOutlierTest, EmptyMatrixRejected) {
  SvddBuildOptions options;
  EXPECT_FALSE(BuildRowOutlierModel(Matrix(0, 0), options).ok());
}

}  // namespace
}  // namespace tsc
