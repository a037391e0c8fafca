#include "lib/baselines/wavelet.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "lib/baselines/dct.h"
#include "linalg/vector_ops.h"
#include "util/rng.h"

namespace tsc {
namespace {

TEST(HaarTransformTest, ForwardInverseRoundTrip) {
  Rng rng(1);
  for (const std::size_t length : {2u, 8u, 64u, 256u}) {
    std::vector<double> signal(length);
    for (auto& v : signal) v = rng.Gaussian();
    const std::vector<double> back = HaarInverse(HaarForward(signal));
    for (std::size_t i = 0; i < length; ++i) {
      EXPECT_NEAR(back[i], signal[i], 1e-10);
    }
  }
}

TEST(HaarTransformTest, ParsevalEnergyPreserved) {
  Rng rng(2);
  std::vector<double> signal(128);
  for (auto& v : signal) v = rng.UniformDouble(-4, 4);
  const std::vector<double> coeffs = HaarForward(signal);
  EXPECT_NEAR(Norm2Squared(signal), Norm2Squared(coeffs), 1e-9);
}

TEST(HaarTransformTest, ConstantSignalIsPureScaling) {
  std::vector<double> signal(32, 2.0);
  const std::vector<double> coeffs = HaarForward(signal);
  EXPECT_NEAR(coeffs[0], 2.0 * std::sqrt(32.0), 1e-10);
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_NEAR(coeffs[i], 0.0, 1e-10);
  }
}

TEST(HaarTransformTest, StepFunctionIsSparse) {
  // A half/half step is exactly representable by scaling + coarsest
  // detail — the discontinuity case where Haar beats DCT.
  std::vector<double> signal(64);
  for (std::size_t i = 0; i < 64; ++i) signal[i] = i < 32 ? 1.0 : 5.0;
  const std::vector<double> coeffs = HaarForward(signal);
  std::size_t nonzero = 0;
  for (const double c : coeffs) {
    if (std::abs(c) > 1e-9) ++nonzero;
  }
  EXPECT_EQ(nonzero, 2u);
}

TEST(HaarBasisTest, MatchesForwardTransform) {
  // Coefficient idx = <signal, basis_idx> for every idx.
  Rng rng(3);
  std::vector<double> signal(16);
  for (auto& v : signal) v = rng.Gaussian();
  const std::vector<double> coeffs = HaarForward(signal);
  for (std::size_t idx = 0; idx < 16; ++idx) {
    double dot = 0.0;
    for (std::size_t j = 0; j < 16; ++j) {
      dot += signal[j] * HaarBasisValue(16, idx, j);
    }
    EXPECT_NEAR(dot, coeffs[idx], 1e-9) << "idx " << idx;
  }
}

TEST(HaarBasisTest, BasisIsOrthonormal) {
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = a; b < 16; ++b) {
      double dot = 0.0;
      for (std::size_t j = 0; j < 16; ++j) {
        dot += HaarBasisValue(16, a, j) * HaarBasisValue(16, b, j);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-10) << a << "," << b;
    }
  }
}

TEST(HaarModelTest, FullCoefficientsExact) {
  Rng rng(4);
  Matrix x(10, 16);  // power-of-two width: no padding effects
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildHaarModel(&source, 16);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(MaxAbsDifference(x, model->ReconstructAll()), 1e-9);
}

TEST(HaarModelTest, NonPowerOfTwoWidthPadded) {
  Rng rng(5);
  Matrix x(6, 13);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildHaarModel(&source, 16);  // = padded length
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->cols(), 13u);
  EXPECT_LT(MaxAbsDifference(x, model->ReconstructAll()), 1e-9);
}

TEST(HaarModelTest, KeepsLargestMagnitudeCoefficients) {
  // One step + tiny noise: with k=2 the model must capture the step.
  Matrix x(1, 32);
  for (std::size_t j = 0; j < 32; ++j) x(0, j) = j < 16 ? 10.0 : 50.0;
  MatrixRowSource source(&x);
  const auto model = BuildHaarModel(&source, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(MaxAbsDifference(x, model->ReconstructAll()), 1e-9);
}

TEST(HaarModelTest, SpaceAccountingIncludesIndices) {
  Rng rng(6);
  Matrix x(20, 32);
  for (auto& v : x.data()) v = rng.Gaussian();
  MatrixRowSource source(&x);
  const auto model = BuildHaarModel(&source, 5);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->CompressedBytes(), 20u * 5u * (8u + 4u));
}

TEST(HaarModelTest, BeatsDctOnSpikySignals) {
  // Isolated spikes: a handful of adaptive Haar coefficients localize
  // them, while DCT's fixed low-frequency prefix cannot.
  Rng rng(7);
  Matrix x(30, 64);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, rng.UniformUint64(64)) = 100.0;
    x(i, rng.UniformUint64(64)) = -80.0;
  }
  MatrixRowSource haar_source(&x);
  const auto haar = BuildHaarModel(&haar_source, 8);
  ASSERT_TRUE(haar.ok());
  MatrixRowSource dct_source(&x);
  const auto dct = BuildDctModel(&dct_source, 8);
  ASSERT_TRUE(dct.ok());
  EXPECT_LT(Rmspe(x, *haar), Rmspe(x, *dct) * 0.5);
}

TEST(HaarModelTest, InvalidArgsRejected) {
  Matrix x(2, 4);
  MatrixRowSource source(&x);
  EXPECT_FALSE(BuildHaarModel(&source, 0).ok());
  const Matrix empty(0, 0);
  MatrixRowSource empty_source(&empty);
  EXPECT_FALSE(BuildHaarModel(&empty_source, 2).ok());
}

}  // namespace
}  // namespace tsc
