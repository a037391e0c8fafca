#include "lib/datacube.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsc {
namespace {

DataCube RandomCube(std::size_t d0, std::size_t d1, std::size_t d2,
                    std::uint64_t seed) {
  Rng rng(seed);
  DataCube cube(d0, d1, d2);
  for (auto& v : cube.data()) v = rng.Gaussian();
  return cube;
}

/// Cube with exact multilinear rank (r, r, r).
DataCube ExactLowRankCube(std::size_t d0, std::size_t d1, std::size_t d2,
                          std::size_t rank, std::uint64_t seed) {
  Rng rng(seed);
  DataCube cube(d0, d1, d2);
  for (std::size_t r = 0; r < rank; ++r) {
    std::vector<double> a(d0);
    std::vector<double> b(d1);
    std::vector<double> c(d2);
    for (auto& v : a) v = rng.Gaussian();
    for (auto& v : b) v = rng.Gaussian();
    for (auto& v : c) v = rng.Gaussian();
    for (std::size_t i = 0; i < d0; ++i) {
      for (std::size_t j = 0; j < d1; ++j) {
        for (std::size_t k = 0; k < d2; ++k) {
          cube(i, j, k) += a[i] * b[j] * c[k];
        }
      }
    }
  }
  return cube;
}

TEST(DataCubeTest, IndexingRoundTrip) {
  DataCube cube(2, 3, 4);
  cube(1, 2, 3) = 42.0;
  cube(0, 0, 0) = -1.0;
  EXPECT_EQ(cube(1, 2, 3), 42.0);
  EXPECT_EQ(cube(0, 0, 0), -1.0);
  EXPECT_EQ(cube.size(), 24u);
  EXPECT_EQ(cube.dim(1), 3u);
}

TEST(UnfoldTest, ShapesPerMode) {
  const DataCube cube = RandomCube(2, 3, 4, 1);
  EXPECT_EQ(Unfold(cube, 0).rows(), 2u);
  EXPECT_EQ(Unfold(cube, 0).cols(), 12u);
  EXPECT_EQ(Unfold(cube, 1).rows(), 3u);
  EXPECT_EQ(Unfold(cube, 1).cols(), 8u);
  EXPECT_EQ(Unfold(cube, 2).rows(), 4u);
  EXPECT_EQ(Unfold(cube, 2).cols(), 6u);
}

TEST(UnfoldTest, FoldInvertsUnfoldEveryMode) {
  const DataCube cube = RandomCube(3, 4, 5, 2);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    const Matrix unfolded = Unfold(cube, mode);
    const DataCube back = Fold(unfolded, cube.dims(), mode);
    ASSERT_EQ(back.size(), cube.size());
    for (std::size_t i = 0; i < cube.size(); ++i) {
      EXPECT_EQ(back.data()[i], cube.data()[i]) << "mode=" << mode;
    }
  }
}

TEST(UnfoldTest, EnergyPreserved) {
  const DataCube cube = RandomCube(4, 5, 6, 3);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    EXPECT_NEAR(Unfold(cube, mode).FrobeniusNormSquared(),
                cube.FrobeniusNormSquared(), 1e-9);
  }
}

TEST(CubeSvddTest, CellsMatchUnfoldedModel) {
  const SalesCubeConfig config{.num_products = 20,
                               .num_stores = 6,
                               .num_weeks = 10,
                               .latent_rank = 2,
                               .noise = 0.02,
                               .spike_probability = 0.0,
                               .seed = 4};
  const DataCube cube = GenerateSalesCube(config);
  SvddBuildOptions options;
  options.space_percent = 40.0;
  const auto model = BuildCubeSvddModel(cube, 0, options);
  ASSERT_TRUE(model.ok());
  const Matrix unfolded = Unfold(cube, 0);
  // Spot-check: model cell == svdd cell of the unfolding.
  for (const auto& [i, j, k] :
       std::vector<std::array<std::size_t, 3>>{{0, 0, 0}, {5, 3, 7}, {19, 5, 9}}) {
    std::size_t dummy_row = i;
    (void)dummy_row;
    const double via_cube = model->ReconstructCell(i, j, k);
    const double via_matrix = model->model().ReconstructCell(i, j * 10 + k);
    EXPECT_DOUBLE_EQ(via_cube, via_matrix);
    EXPECT_NEAR(via_cube, cube(i, j, k),
                0.3 * std::abs(cube(i, j, k)) + 1.0);
  }
  EXPECT_EQ(unfolded(5, 3 * 10 + 7), cube(5, 3, 7));
}

TEST(CubeSvddTest, AllModesReconstructReasonably) {
  const SalesCubeConfig config{.num_products = 16,
                               .num_stores = 8,
                               .num_weeks = 12,
                               .latent_rank = 2,
                               .noise = 0.02,
                               .spike_probability = 0.0,
                               .seed = 5};
  const DataCube cube = GenerateSalesCube(config);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    SvddBuildOptions options;
    options.space_percent = 50.0;
    const auto model = BuildCubeSvddModel(cube, mode, options);
    ASSERT_TRUE(model.ok()) << "mode=" << mode;
    double sse = 0.0;
    double denom = 1e-12;
    for (std::size_t i = 0; i < cube.dim(0); ++i) {
      for (std::size_t j = 0; j < cube.dim(1); ++j) {
        for (std::size_t k = 0; k < cube.dim(2); ++k) {
          const double err = model->ReconstructCell(i, j, k) - cube(i, j, k);
          sse += err * err;
          denom += cube(i, j, k) * cube(i, j, k);
        }
      }
    }
    EXPECT_LT(std::sqrt(sse / denom), 0.25) << "mode=" << mode;
  }
}

TEST(CubeSvddTest, InvalidModeRejected) {
  const DataCube cube = RandomCube(2, 2, 2, 6);
  SvddBuildOptions options;
  EXPECT_FALSE(BuildCubeSvddModel(cube, 3, options).ok());
}

TEST(TuckerTest, ExactOnLowRankCube) {
  const DataCube cube = ExactLowRankCube(10, 8, 6, 2, 7);
  const auto model = BuildTuckerModel(cube, {2, 2, 2});
  ASSERT_TRUE(model.ok());
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t k = 0; k < 6; ++k) {
        EXPECT_NEAR(model->ReconstructCell(i, j, k), cube(i, j, k), 1e-7);
      }
    }
  }
}

TEST(TuckerTest, FullRanksReconstructExactly) {
  const DataCube cube = RandomCube(5, 4, 3, 8);
  const auto model = BuildTuckerModel(cube, {5, 4, 3});
  ASSERT_TRUE(model.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_NEAR(model->ReconstructCell(i, j, k), cube(i, j, k), 1e-8);
      }
    }
  }
}

TEST(TuckerTest, CompressedBytesAccounting) {
  const DataCube cube = RandomCube(10, 8, 6, 9);
  const auto model = BuildTuckerModel(cube, {2, 3, 4});
  ASSERT_TRUE(model.ok());
  const std::uint64_t expected =
      (10u * 2 + 8u * 3 + 6u * 4 + 2u * 3 * 4) * 8u;
  EXPECT_EQ(model->CompressedBytes(), expected);
  const auto r = model->ranks();
  EXPECT_EQ(r[0], 2u);
  EXPECT_EQ(r[2], 4u);
}

TEST(TuckerTest, InvalidRanksRejected) {
  const DataCube cube = RandomCube(4, 4, 4, 10);
  EXPECT_FALSE(BuildTuckerModel(cube, {0, 2, 2}).ok());
  EXPECT_FALSE(BuildTuckerModel(cube, {5, 2, 2}).ok());
}

TEST(SalesCubeTest, DeterministicAndNonNegative) {
  SalesCubeConfig config;
  config.num_products = 10;
  config.num_stores = 5;
  config.num_weeks = 8;
  const DataCube a = GenerateSalesCube(config);
  const DataCube b = GenerateSalesCube(config);
  EXPECT_EQ(a.data(), b.data());
  for (const double v : a.data()) EXPECT_GE(v, 0.0);
}

}  // namespace
}  // namespace tsc
