#include "lib/baselines/dct.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/svd_compressor.h"
#include "data/generators.h"
#include "linalg/vector_ops.h"
#include "util/rng.h"

namespace tsc {
namespace {

TEST(DctTest, ForwardInverseRoundTrip) {
  Rng rng(1);
  std::vector<double> signal(37);
  for (auto& v : signal) v = rng.Gaussian();
  const std::vector<double> coeffs = DctForward(signal);
  const std::vector<double> back = DctInverse(coeffs);
  ASSERT_EQ(back.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(back[i], signal[i], 1e-10);
  }
}

TEST(DctTest, ParsevalEnergyPreserved) {
  // Orthonormal DCT: ||x||^2 == ||DCT(x)||^2.
  Rng rng(2);
  std::vector<double> signal(24);
  for (auto& v : signal) v = rng.UniformDouble(-5, 5);
  const std::vector<double> coeffs = DctForward(signal);
  EXPECT_NEAR(Norm2Squared(signal), Norm2Squared(coeffs), 1e-9);
}

TEST(DctTest, ConstantSignalIsPureDc) {
  std::vector<double> signal(16, 3.0);
  const std::vector<double> coeffs = DctForward(signal);
  EXPECT_NEAR(coeffs[0], 3.0 * std::sqrt(16.0), 1e-10);
  for (std::size_t f = 1; f < coeffs.size(); ++f) {
    EXPECT_NEAR(coeffs[f], 0.0, 1e-10);
  }
}

TEST(DctTest, SmoothSignalEnergyInLowFrequencies) {
  std::vector<double> signal(64);
  for (std::size_t i = 0; i < 64; ++i) {
    signal[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 64.0);
  }
  const std::vector<double> coeffs = DctForward(signal);
  double low = 0.0;
  double total = 0.0;
  for (std::size_t f = 0; f < coeffs.size(); ++f) {
    total += coeffs[f] * coeffs[f];
    if (f < 8) low += coeffs[f] * coeffs[f];
  }
  EXPECT_GT(low / total, 0.99);
}

TEST(DctModelTest, BuildAndReconstructMatchesTruncatedTransform) {
  Rng rng(3);
  Matrix x(10, 20);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildDctModel(&source, 6);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->k(), 6u);
  // Reference: full DCT, zero the tail, invert.
  for (const std::size_t i : {0u, 4u, 9u}) {
    std::vector<double> coeffs =
        DctForward(std::span<const double>(x.Row(i).data(), 20));
    for (std::size_t f = 6; f < coeffs.size(); ++f) coeffs[f] = 0.0;
    const std::vector<double> expected = DctInverse(coeffs);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_NEAR(model->ReconstructCell(i, j), expected[j], 1e-9);
    }
  }
}

TEST(DctModelTest, FullCoefficientsReconstructExactly) {
  Rng rng(4);
  Matrix x(8, 12);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildDctModel(&source, 12);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(MaxAbsDifference(x, model->ReconstructAll()), 1e-9);
}

TEST(DctModelTest, RowMatchesCells) {
  Rng rng(5);
  Matrix x(6, 10);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildDctModel(&source, 4);
  ASSERT_TRUE(model.ok());
  std::vector<double> row(10);
  model->ReconstructRow(3, row);
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_NEAR(row[j], model->ReconstructCell(3, j), 1e-12);
  }
}

TEST(DctModelTest, SpaceAccounting) {
  Rng rng(6);
  Matrix x(50, 30);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildDctModel(&source, 7);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->CompressedBytes(), 50u * 7u * 8u);
}

TEST(DctModelTest, InvalidArgsRejected) {
  Matrix x(3, 4);
  MatrixRowSource source(&x);
  EXPECT_FALSE(BuildDctModel(&source, 0).ok());
  const Matrix empty(0, 0);
  MatrixRowSource empty_source(&empty);
  EXPECT_FALSE(BuildDctModel(&empty_source, 2).ok());
}

TEST(Dct2dTest, ForwardInverseRoundTrip) {
  Rng rng(41);
  Matrix x(9, 14);
  for (auto& v : x.data()) v = rng.Gaussian();
  const Matrix back = Dct2dInverse(Dct2dForward(x));
  EXPECT_LT(MaxAbsDifference(x, back), 1e-9);
}

TEST(Dct2dTest, EnergyPreserved) {
  Rng rng(42);
  Matrix x(7, 11);
  for (auto& v : x.data()) v = rng.UniformDouble(-2, 2);
  EXPECT_NEAR(Dct2dForward(x).FrobeniusNormSquared(),
              x.FrobeniusNormSquared(), 1e-9);
}

TEST(Dct2dTest, FullBlockReconstructsExactly) {
  Rng rng(43);
  Matrix x(6, 8);
  for (auto& v : x.data()) v = rng.Gaussian();
  const Matrix recon = Dct2dTruncatedReconstruction(x, 6, 8);
  EXPECT_LT(MaxAbsDifference(x, recon), 1e-9);
}

TEST(Dct2dTest, SmoothImageCompressesWell) {
  // A genuinely image-like (smooth in both directions) matrix is the
  // 2-D DCT's home turf.
  Matrix x(32, 32);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      x(i, j) = std::sin(2.0 * M_PI * i / 32.0) +
                std::cos(2.0 * M_PI * j / 32.0);
    }
  }
  Matrix err = Dct2dTruncatedReconstruction(x, 8, 8);
  err.Subtract(x);
  EXPECT_LT(err.FrobeniusNorm() / x.FrobeniusNorm(), 0.05);
}

TEST(Dct2dTest, RowWiseBeatsWholeMatrixOnCustomerData) {
  // Section 2.3's claim: adjacent customers are unrelated, so the column
  // direction is white noise and the whole-matrix transform wastes its
  // budget. Compare at equal coefficient counts.
  PhoneDatasetConfig config;
  config.num_customers = 200;
  config.num_days = 64;
  config.spike_probability = 0.0;
  const Matrix x = GeneratePhoneDataset(config).values;
  // Budget: 10% of the cells as retained coefficients.
  const std::size_t k_row = 6;  // 200 * 6 = 1200 coefficients
  const std::size_t rows_kept = 60;
  const std::size_t cols_kept = 20;  // 60 * 20 = 1200 coefficients
  MatrixRowSource source(&x);
  const auto row_model = BuildDctModel(&source, k_row);
  ASSERT_TRUE(row_model.ok());
  const double row_rmspe = Rmspe(x, *row_model);

  Matrix err2d = Dct2dTruncatedReconstruction(x, rows_kept, cols_kept);
  err2d.Subtract(x);
  Matrix dev = x;
  const double mean = x.MeanCell();
  for (auto& v : dev.data()) v -= mean;
  const double rmspe_2d = err2d.FrobeniusNorm() / dev.FrobeniusNorm();

  EXPECT_LT(row_rmspe, rmspe_2d);
}

TEST(DctVsSvdTest, SvdNeverWorseInFrobeniusNorm) {
  // Section 2.3's claim: SVD is the optimal linear transform for a given
  // dataset, so at equal component count its total squared error is <=
  // DCT's. (DCT stores N*k values, SVD N*k + k + k*M; close enough at
  // N >> M for the optimality comparison per component.)
  const Dataset d = GenerateLowRankDataset(60, 24, 10, 7, /*noise=*/0.3);
  for (const std::size_t k : {2u, 5u, 10u}) {
    MatrixRowSource dct_source(&d.values);
    const auto dct = BuildDctModel(&dct_source, k);
    ASSERT_TRUE(dct.ok());
    MatrixRowSource svd_source(&d.values);
    SvdBuildOptions options;
    options.k = k;
    const auto svd = BuildSvdModel(&svd_source, options);
    ASSERT_TRUE(svd.ok());
    EXPECT_LE(Rmspe(d.values, *svd), Rmspe(d.values, *dct) + 1e-10)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace tsc
