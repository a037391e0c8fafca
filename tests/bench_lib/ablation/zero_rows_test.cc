#include "lib/ablation/zero_rows.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "data/generators.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

/// Phone data with a heavy all-zero customer fraction.
Matrix SparseCustomerMatrix(double zero_fraction, std::size_t n = 400,
                            std::size_t m = 50) {
  PhoneDatasetConfig config;
  config.num_customers = n;
  config.num_days = m;
  config.zero_customer_fraction = zero_fraction;
  config.seed = 77;
  return GeneratePhoneDataset(config).values;
}

TEST(ZeroRowFilterTest, ZeroRowsExactAndFlagged) {
  const Matrix x = SparseCustomerMatrix(0.3);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto store = BuildZeroRowFilteredSvdd(x, options);
  ASSERT_TRUE(store.ok());
  EXPECT_GT(store->zero_row_count(), 0u);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    bool all_zero = true;
    for (const double v : x.Row(i)) {
      if (v != 0.0) all_zero = false;
    }
    EXPECT_EQ(store->IsZeroRow(i), all_zero);
    if (all_zero) {
      ++checked;
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_EQ(store->ReconstructCell(i, j), 0.0);
      }
    }
  }
  EXPECT_EQ(checked, store->zero_row_count());
}

TEST(ZeroRowFilterTest, ActiveRowsMatchInnerModel) {
  const Matrix x = SparseCustomerMatrix(0.2);
  SvddBuildOptions options;
  options.space_percent = 12.0;
  const auto store = BuildZeroRowFilteredSvdd(x, options);
  ASSERT_TRUE(store.ok());
  // The wrapper must agree with reconstructing through its own rows.
  std::vector<double> row(x.cols());
  for (const std::size_t i : {0u, 5u, 123u, 399u}) {
    store->ReconstructRow(i, row);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_NEAR(row[j], store->ReconstructCell(i, j), 1e-12);
    }
  }
}

TEST(ZeroRowFilterTest, RespectsFullMatrixBudget) {
  const Matrix x = SparseCustomerMatrix(0.3);
  for (const double s : {5.0, 10.0, 20.0}) {
    SvddBuildOptions options;
    options.space_percent = s;
    const auto store = BuildZeroRowFilteredSvdd(x, options);
    ASSERT_TRUE(store.ok());
    EXPECT_LE(store->SpacePercent(), s * 1.01) << "s=" << s;
  }
}

TEST(ZeroRowFilterTest, BeatsPlainSvddOnSparseData) {
  // With 30% dead rows, spending the whole budget on the active rows
  // must not hurt — and generally helps.
  const Matrix x = SparseCustomerMatrix(0.3, 600, 60);
  SvddBuildOptions options;
  options.space_percent = 8.0;
  const auto filtered = BuildZeroRowFilteredSvdd(x, options);
  ASSERT_TRUE(filtered.ok());
  MatrixRowSource source(&x);
  const auto plain = BuildSvddModel(&source, options);
  ASSERT_TRUE(plain.ok());
  EXPECT_LE(Rmspe(x, *filtered), Rmspe(x, *plain) * 1.02);
}

TEST(ZeroRowFilterTest, NoZeroRowsDegeneratesGracefully) {
  const Matrix x = SparseCustomerMatrix(0.0);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto store = BuildZeroRowFilteredSvdd(x, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->zero_row_count(), 0u);
  EXPECT_EQ(store->rows(), x.rows());
}

TEST(ZeroRowFilterTest, AllZeroMatrixRejected) {
  const Matrix x(10, 5);
  SvddBuildOptions options;
  EXPECT_FALSE(BuildZeroRowFilteredSvdd(x, options).ok());
}

TEST(ZeroRowFilterTest, EmptyMatrixRejected) {
  SvddBuildOptions options;
  EXPECT_FALSE(BuildZeroRowFilteredSvdd(Matrix(0, 0), options).ok());
}

TEST(ZeroRowFilterTest, BitmapChargedToSpace) {
  const Matrix x = SparseCustomerMatrix(0.2);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto store = BuildZeroRowFilteredSvdd(x, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->CompressedBytes(),
            store->inner().CompressedBytes() + (x.rows() + 7) / 8);
}

}  // namespace
}  // namespace tsc
