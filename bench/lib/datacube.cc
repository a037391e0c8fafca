#include "lib/datacube.h"

#include <algorithm>
#include <cmath>

#include "linalg/symmetric_eigen.h"
#include "storage/row_source.h"
#include "util/logging.h"

namespace tsc {
namespace {

/// Maps a cube coordinate to its (row, col) in the mode-n unfolding.
void UnfoldIndex(const std::array<std::size_t, 3>& dims, std::size_t mode,
                 std::size_t i, std::size_t j, std::size_t k,
                 std::size_t* row, std::size_t* col) {
  const std::size_t coords[3] = {i, j, k};
  *row = coords[mode];
  // Remaining axes in ascending order, later axis fastest.
  std::size_t other[2];
  std::size_t other_dims[2];
  std::size_t idx = 0;
  for (std::size_t axis = 0; axis < 3; ++axis) {
    if (axis == mode) continue;
    other[idx] = coords[axis];
    other_dims[idx] = dims[axis];
    ++idx;
  }
  (void)other_dims[0];
  *col = other[0] * other_dims[1] + other[1];
}

}  // namespace

double DataCube::FrobeniusNormSquared() const {
  double total = 0.0;
  for (double v : data_) total += v * v;
  return total;
}

Matrix Unfold(const DataCube& cube, std::size_t mode) {
  TSC_CHECK_LT(mode, 3u);
  const auto& dims = cube.dims();
  const std::size_t rows = dims[mode];
  const std::size_t cols = cube.size() == 0 ? 0 : cube.size() / rows;
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < dims[0]; ++i) {
    for (std::size_t j = 0; j < dims[1]; ++j) {
      for (std::size_t k = 0; k < dims[2]; ++k) {
        std::size_t r = 0;
        std::size_t c = 0;
        UnfoldIndex(dims, mode, i, j, k, &r, &c);
        out(r, c) = cube(i, j, k);
      }
    }
  }
  return out;
}

DataCube Fold(const Matrix& matrix, const std::array<std::size_t, 3>& dims,
              std::size_t mode) {
  TSC_CHECK_LT(mode, 3u);
  TSC_CHECK_EQ(matrix.rows(), dims[mode]);
  DataCube cube(dims[0], dims[1], dims[2]);
  for (std::size_t i = 0; i < dims[0]; ++i) {
    for (std::size_t j = 0; j < dims[1]; ++j) {
      for (std::size_t k = 0; k < dims[2]; ++k) {
        std::size_t r = 0;
        std::size_t c = 0;
        UnfoldIndex(dims, mode, i, j, k, &r, &c);
        cube(i, j, k) = matrix(r, c);
      }
    }
  }
  return cube;
}

double CubeSvddModel::ReconstructCell(std::size_t i, std::size_t j,
                                      std::size_t k) const {
  std::size_t r = 0;
  std::size_t c = 0;
  UnfoldIndex(dims_, mode_, i, j, k, &r, &c);
  return model_.ReconstructCell(r, c);
}

StatusOr<CubeSvddModel> BuildCubeSvddModel(const DataCube& cube,
                                           std::size_t mode,
                                           const SvddBuildOptions& options) {
  if (mode >= 3) return Status::InvalidArgument("mode must be 0, 1 or 2");
  if (cube.size() == 0) return Status::InvalidArgument("empty cube");
  const Matrix unfolded = Unfold(cube, mode);
  if (unfolded.cols() > 4096) {
    // The eigenproblem is on an (M x M) matrix with M = product of the
    // collapsed dims; the paper's advice is to pick a flattening that
    // keeps it "computable within the available memory resources".
    return Status::ResourceExhausted(
        "unfolding produces too many columns; pick another mode");
  }
  MatrixRowSource source(&unfolded);
  TSC_ASSIGN_OR_RETURN(SvddModel model, BuildSvddModel(&source, options));
  return CubeSvddModel(std::move(model), cube.dims(), mode);
}

TuckerModel::TuckerModel(std::array<Matrix, 3> factors, DataCube core)
    : factors_(std::move(factors)), core_(std::move(core)) {
  for (std::size_t n = 0; n < 3; ++n) {
    TSC_CHECK_EQ(factors_[n].cols(), core_.dim(n));
  }
}

double TuckerModel::ReconstructCell(std::size_t i, std::size_t j,
                                    std::size_t k) const {
  const auto r = ranks();
  double value = 0.0;
  for (std::size_t h = 0; h < r[0]; ++h) {
    const double a = factors_[0](i, h);
    if (a == 0.0) continue;
    for (std::size_t l = 0; l < r[1]; ++l) {
      const double ab = a * factors_[1](j, l);
      if (ab == 0.0) continue;
      for (std::size_t t = 0; t < r[2]; ++t) {
        value += ab * factors_[2](k, t) * core_(h, l, t);
      }
    }
  }
  return value;
}

std::uint64_t TuckerModel::CompressedBytes() const {
  std::uint64_t values = core_.size();
  for (const Matrix& f : factors_) values += f.size();
  return values * kBytesPerValue;
}

StatusOr<TuckerModel> BuildTuckerModel(
    const DataCube& cube, const std::array<std::size_t, 3>& ranks) {
  if (cube.size() == 0) return Status::InvalidArgument("empty cube");
  std::array<Matrix, 3> factors;
  for (std::size_t mode = 0; mode < 3; ++mode) {
    if (ranks[mode] == 0 || ranks[mode] > cube.dim(mode)) {
      return Status::InvalidArgument("rank out of range for mode");
    }
    // Factor = top eigenvectors of the mode-n Gram matrix A A^T, where A
    // is the mode-n unfolding; A A^T = Gram(A^T).
    const Matrix unfolded = Unfold(cube, mode);
    const Matrix gram = GramMatrix(unfolded.Transposed());
    TSC_ASSIGN_OR_RETURN(EigenDecomposition eigen, SymmetricEigen(gram));
    Matrix factor(cube.dim(mode), ranks[mode]);
    for (std::size_t c = 0; c < ranks[mode]; ++c) {
      for (std::size_t r = 0; r < cube.dim(mode); ++r) {
        factor(r, c) = eigen.eigenvectors(r, c);
      }
    }
    factors[mode] = std::move(factor);
  }

  // Core G = X x_0 A^T x_1 B^T x_2 C^T, computed cell-wise; the cubes in
  // this library are small enough that the direct O(|X| * r) contraction
  // per mode is fine.
  DataCube core(ranks[0], ranks[1], ranks[2]);
  for (std::size_t h = 0; h < ranks[0]; ++h) {
    for (std::size_t l = 0; l < ranks[1]; ++l) {
      for (std::size_t t = 0; t < ranks[2]; ++t) {
        double total = 0.0;
        for (std::size_t i = 0; i < cube.dim(0); ++i) {
          const double a = factors[0](i, h);
          if (a == 0.0) continue;
          for (std::size_t j = 0; j < cube.dim(1); ++j) {
            const double ab = a * factors[1](j, l);
            if (ab == 0.0) continue;
            for (std::size_t k = 0; k < cube.dim(2); ++k) {
              total += ab * factors[2](k, t) * cube(i, j, k);
            }
          }
        }
        core(h, l, t) = total;
      }
    }
  }
  return TuckerModel(std::move(factors), std::move(core));
}

DataCube GenerateSalesCube(const SalesCubeConfig& config) {
  Rng rng(config.seed);
  DataCube cube(config.num_products, config.num_stores, config.num_weeks);
  // Low multilinear rank: sum of `latent_rank` separable components with
  // non-negative factors (product popularity x store size x seasonality).
  for (std::size_t r = 0; r < config.latent_rank; ++r) {
    std::vector<double> product(config.num_products);
    std::vector<double> store(config.num_stores);
    std::vector<double> week(config.num_weeks);
    for (double& v : product) v = rng.Pareto(1.0, 2.5);
    for (double& v : store) v = 0.5 + rng.UniformDouble() * 2.0;
    const double phase = rng.UniformDouble(0.0, 2.0 * M_PI);
    for (std::size_t w = 0; w < config.num_weeks; ++w) {
      week[w] = 1.0 + 0.5 * std::sin(2.0 * M_PI * static_cast<double>(w) /
                                         static_cast<double>(config.num_weeks) +
                                     phase);
    }
    const double strength = std::pow(0.5, static_cast<double>(r)) * 10.0;
    for (std::size_t i = 0; i < config.num_products; ++i) {
      for (std::size_t j = 0; j < config.num_stores; ++j) {
        for (std::size_t k = 0; k < config.num_weeks; ++k) {
          cube(i, j, k) += strength * product[i] * store[j] * week[k];
        }
      }
    }
  }
  for (std::size_t i = 0; i < config.num_products; ++i) {
    for (std::size_t j = 0; j < config.num_stores; ++j) {
      for (std::size_t k = 0; k < config.num_weeks; ++k) {
        double& cell = cube(i, j, k);
        cell = std::max(0.0, cell * (1.0 + rng.Gaussian(0.0, config.noise)));
        if (rng.Bernoulli(config.spike_probability)) {
          cell += 20.0 * (1.0 + rng.UniformDouble());
        }
      }
    }
  }
  return cube;
}

}  // namespace tsc
