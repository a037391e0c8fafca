// Randomized streaming build engine (core/randomized_build.h + the
// SvddBuildEngine::kRandomized branch of BuildSvddModel): counter-based
// Gaussian purity, subspace accuracy on low-rank data, seeded bitwise
// determinism across thread counts, the RMSPE-vs-exact bound across
// space budgets and quant schemes, and the end-to-end byte round-trip
// through save/load.

#include "core/randomized_build.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

Matrix MakePhoneMatrix(std::size_t rows, std::size_t cols,
                       std::uint64_t seed = 17) {
  PhoneDatasetConfig config;
  config.num_customers = rows;
  config.num_days = cols;
  config.seed = seed;
  return GeneratePhoneDataset(config).values;
}

TEST(CounterGaussianTest, IsAPureFunctionOfItsCounter) {
  const double a = RandomizedSvdBuilder::CounterGaussian(42, 1000, 7);
  const double b = RandomizedSvdBuilder::CounterGaussian(42, 1000, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, RandomizedSvdBuilder::CounterGaussian(43, 1000, 7));
  EXPECT_NE(a, RandomizedSvdBuilder::CounterGaussian(42, 1001, 7));
  EXPECT_NE(a, RandomizedSvdBuilder::CounterGaussian(42, 1000, 8));
}

TEST(CounterGaussianTest, MomentsLookStandardNormal) {
  double sum = 0.0, sum_sq = 0.0;
  const std::size_t n = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = RandomizedSvdBuilder::CounterGaussian(7, i / 64, i % 64);
    ASSERT_TRUE(std::isfinite(g));
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RandomizedSvdBuilderTest, RecoversLowRankSpectrumExactly) {
  // Exactly rank-4 data: the sketch subspace must capture it, so the
  // Rayleigh-Ritz eigenvalues match the exact ones to relative 1e-8.
  const Matrix x = GenerateLowRankDataset(300, 48, /*rank=*/4, 99).values;
  MatrixRowSource source(&x);
  RandomizedSketchOptions options;
  options.target_rank = 4;
  options.seed = 5;
  const RandomizedSvdBuilder builder(options);
  auto basis = builder.EstimateSubspace(&source, nullptr);
  ASSERT_TRUE(basis.ok()) << basis.status().ToString();
  ASSERT_GE(basis->eigenvalues.size(), 4u);

  // Exact reference: C = X^T X eigenvalues.
  Matrix c(48, 48);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t a = 0; a < 48; ++a) {
      for (std::size_t b = 0; b <= a; ++b) {
        c(a, b) += x(i, a) * x(i, b);
      }
    }
  }
  for (std::size_t a = 0; a < 48; ++a) {
    for (std::size_t b = a + 1; b < 48; ++b) c(a, b) = c(b, a);
  }
  auto exact = SymmetricEigen(c);
  ASSERT_TRUE(exact.ok());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(basis->eigenvalues[j], exact->eigenvalues[j],
                1e-8 * exact->eigenvalues[0])
        << "eigenvalue " << j;
  }
  // Columns of the estimated basis are orthonormal.
  const Matrix& v = basis->eigenvectors;
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t l = 0; l <= j; ++l) {
      double dot = 0.0;
      for (std::size_t i = 0; i < v.rows(); ++i) dot += v(i, j) * v(i, l);
      EXPECT_NEAR(dot, j == l ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(RandomizedSvdBuilderTest, PowerIterationsAddPassesAndTightenTail) {
  const Matrix x = MakePhoneMatrix(500, 40);
  MatrixRowSource source(&x);
  RandomizedSketchOptions options;
  options.target_rank = 6;
  options.power_iterations = 2;
  const RandomizedSvdBuilder builder(options);
  const std::size_t passes_before = source.passes_started();
  auto basis = builder.EstimateSubspace(&source, nullptr);
  ASSERT_TRUE(basis.ok());
  // sketch + 2 power + projection = 4 streaming passes.
  EXPECT_EQ(source.passes_started() - passes_before, 4u);
  EXPECT_EQ(basis->power_iterations, 2u);
}

// Satellite requirement: --build=randomized is bit-identical across
// thread counts for a fixed seed. Rows exceed kBuildChunkRows so the
// chunking machinery is exercised too.
TEST(RandomizedBuildTest, BitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = MakePhoneMatrix(1500, 40);
  std::vector<std::string> paths;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.engine = SvddBuildEngine::kRandomized;
    options.space_percent = 5.0;
    options.sketch_seed = 1234;
    options.num_threads = threads;
    const auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = ::testing::TempDir() + "/randbuild_t" +
                             std::to_string(threads) + ".model";
    ASSERT_TRUE(model->SaveToFile(path).ok());
    paths.push_back(path);
  }
  EXPECT_EQ(ReadFileBytes(paths[0]), ReadFileBytes(paths[1]));
}

TEST(RandomizedBuildTest, DifferentSeedsGiveDifferentModels) {
  const Matrix x = MakePhoneMatrix(300, 40);
  std::vector<std::vector<std::uint8_t>> bytes;
  for (const std::uint64_t seed : {42u, 43u}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.engine = SvddBuildEngine::kRandomized;
    options.space_percent = 5.0;
    options.sketch_seed = seed;
    const auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok());
    const std::string path = ::testing::TempDir() + "/randbuild_s" +
                             std::to_string(seed) + ".model";
    ASSERT_TRUE(model->SaveToFile(path).ok());
    bytes.push_back(ReadFileBytes(path));
  }
  EXPECT_NE(bytes[0], bytes[1]);
}

TEST(RandomizedBuildTest, ReportsEngineDiagnosticsAndStreamedRows) {
  const Matrix x = MakePhoneMatrix(400, 40);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.engine = SvddBuildEngine::kRandomized;
  options.space_percent = 5.0;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(diag.engine, "randomized");
  EXPECT_GT(diag.sketch_cols, 0u);
  EXPECT_EQ(diag.power_iterations, 0u);
  // sketch + projection + pass2 + pass3 = 4 passes over 400 rows.
  EXPECT_EQ(diag.rows_streamed, 4u * 400u);

  MatrixRowSource exact_source(&x);
  SvddBuildOptions exact_options = options;
  exact_options.engine = SvddBuildEngine::kExact;
  SvddBuildDiagnostics exact_diag;
  ASSERT_TRUE(BuildSvddModel(&exact_source, exact_options, &exact_diag).ok());
  EXPECT_EQ(exact_diag.engine, "exact");
  EXPECT_EQ(exact_diag.sketch_cols, 0u);
  EXPECT_EQ(exact_diag.rows_streamed, 3u * 400u);
}

// Satellite requirement: RMSPE of the randomized build stays within
// 1.25x of the exact build at equal space budget, for every quant
// scheme and space budget in the acceptance grid.
TEST(RandomizedBuildTest, RmspeWithinBoundOfExactAcrossBudgetsAndQuant) {
  // Wide enough that the 2% budget can still pay each quantized row's
  // 16-byte header and fit k >= 1 for every scheme.
  const Matrix x = MakePhoneMatrix(400, 200);
  const QuantScheme schemes[] = {QuantScheme::kF64, QuantScheme::kF32,
                                 QuantScheme::kI16, QuantScheme::kI8};
  for (const double space : {2.0, 5.0, 10.0}) {
    for (const QuantScheme scheme : schemes) {
      SvddBuildOptions options;
      options.space_percent = space;
      options.quant = scheme;
      // One power iteration: at the larger budgets k_max reaches into
      // the slowly-decaying tail of the phone spectrum, where the plain
      // q=0 sketch loses up to ~1.5x RMSPE. q=1 is the documented knob
      // for that regime and restores near-exact subspaces (measured
      // ratios ~1.00-1.01 across all budgets/schemes here).
      options.power_iterations = 1;

      MatrixRowSource exact_source(&x);
      options.engine = SvddBuildEngine::kExact;
      const auto exact = BuildSvddModel(&exact_source, options);
      ASSERT_TRUE(exact.ok())
          << "space=" << space << " quant=" << static_cast<int>(scheme)
          << ": " << exact.status().ToString();

      MatrixRowSource rand_source(&x);
      options.engine = SvddBuildEngine::kRandomized;
      const auto randomized = BuildSvddModel(&rand_source, options);
      ASSERT_TRUE(randomized.ok())
          << "space=" << space << " quant=" << static_cast<int>(scheme)
          << ": " << randomized.status().ToString();

      const double exact_rmspe = Rmspe(x, *exact);
      const double rand_rmspe = Rmspe(x, *randomized);
      EXPECT_LE(rand_rmspe, exact_rmspe * 1.25 + 1e-9)
          << "space=" << space << " quant=" << static_cast<int>(scheme)
          << ": randomized " << rand_rmspe << " vs exact " << exact_rmspe;
      // Equal space budget: the randomized store must not buy accuracy
      // with extra bytes.
      EXPECT_LE(randomized->CompressedBytes(),
                static_cast<std::uint64_t>(
                    x.rows() * x.cols() * sizeof(double) * space / 100.0 *
                    1.05));
    }
  }
}

// --build=randomized end-to-end byte round-trip through save/load: the
// model file must reload into a model that reconstructs bit-identically
// and re-saves to the same bytes.
TEST(RandomizedBuildTest, BuildRoundTripsThroughDisk) {
  const Matrix x = MakePhoneMatrix(600, 40);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.engine = SvddBuildEngine::kRandomized;
  options.space_percent = 5.0;
  options.sketch_seed = 7;
  const auto built = BuildSvddModel(&source, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path = ::testing::TempDir() + "/randbuild.model";
  ASSERT_TRUE(built->SaveToFile(path).ok());
  auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), x.rows());
  ASSERT_EQ(loaded->cols(), x.cols());

  // Every cell reconstructs bit-identically between the built and
  // reloaded models (doubles compared with ==, not tolerance).
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      ASSERT_EQ(built->ReconstructCell(i, j), loaded->ReconstructCell(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }

  // Byte round trip: serialization is canonical (delta entries are
  // written in key order, independent of hash-table history), so saving
  // the reloaded model must reproduce the original file exactly.
  const std::string path2 = ::testing::TempDir() + "/randbuild2.model";
  ASSERT_TRUE(loaded->SaveToFile(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
}

}  // namespace
}  // namespace tsc
