#ifndef TSC_CUBE_DATACUBE_H_
#define TSC_CUBE_DATACUBE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/svdd_compressor.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace tsc {

/// Dense 3-dimensional array (the Section 6.1 "productid x storeid x
/// weekid DataCube"), stored in row-major order with the last dimension
/// fastest.
class DataCube {
 public:
  DataCube() : dims_{0, 0, 0} {}
  DataCube(std::size_t d0, std::size_t d1, std::size_t d2)
      : dims_{d0, d1, d2}, data_(d0 * d1 * d2, 0.0) {}

  std::size_t dim(std::size_t axis) const { return dims_[axis]; }
  const std::array<std::size_t, 3>& dims() const { return dims_; }
  std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * dims_[1] + j) * dims_[2] + k];
  }
  double operator()(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * dims_[1] + j) * dims_[2] + k];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  double FrobeniusNormSquared() const;

 private:
  std::array<std::size_t, 3> dims_;
  std::vector<double> data_;
};

/// Mode-n unfolding: a dims[mode] x (product of the other dims) matrix
/// whose row r is the slice of the cube at index r along `mode`. The
/// column index enumerates the remaining axes with the later one fastest.
Matrix Unfold(const DataCube& cube, std::size_t mode);

/// Inverse of Unfold for the given target dims.
DataCube Fold(const Matrix& matrix, const std::array<std::size_t, 3>& dims,
              std::size_t mode);

/// The Section 6.1 flattening approach: compress a chosen unfolding with
/// SVDD and answer cube-cell queries against it. "How dimensions are
/// collapsed makes no difference to the availability of access."
class CubeSvddModel {
 public:
  CubeSvddModel() = default;
  CubeSvddModel(SvddModel model, std::array<std::size_t, 3> dims,
                std::size_t mode)
      : model_(std::move(model)), dims_(dims), mode_(mode) {}

  double ReconstructCell(std::size_t i, std::size_t j, std::size_t k) const;

  std::uint64_t CompressedBytes() const { return model_.CompressedBytes(); }
  std::size_t mode() const { return mode_; }
  const SvddModel& model() const { return model_; }
  const std::array<std::size_t, 3>& dims() const { return dims_; }

 private:
  SvddModel model_;
  std::array<std::size_t, 3> dims_ = {0, 0, 0};
  std::size_t mode_ = 0;
};

/// Compresses `cube` by unfolding along `mode` and running the 3-pass
/// SVDD build on the resulting matrix.
StatusOr<CubeSvddModel> BuildCubeSvddModel(const DataCube& cube,
                                           std::size_t mode,
                                           const SvddBuildOptions& options);

/// Truncated Tucker decomposition (3-mode PCA, the paper's open
/// question): X(i,j,k) ~= sum_{h,l,r} A(i,h) B(j,l) C(k,r) G(h,l,r),
/// computed by HOSVD — mode-n factors from the top eigenvectors of the
/// mode-n Gram matrices, core by projecting the cube onto them.
class TuckerModel {
 public:
  TuckerModel() = default;
  TuckerModel(std::array<Matrix, 3> factors, DataCube core);

  /// O(r0 * r1 * r2) per cell.
  double ReconstructCell(std::size_t i, std::size_t j, std::size_t k) const;

  /// Factor matrices plus core, at b bytes per value.
  std::uint64_t CompressedBytes() const;

  const std::array<Matrix, 3>& factors() const { return factors_; }
  const DataCube& core() const { return core_; }
  std::array<std::size_t, 3> ranks() const {
    return {factors_[0].cols(), factors_[1].cols(), factors_[2].cols()};
  }

 private:
  std::array<Matrix, 3> factors_;  ///< factors_[n] is dims[n] x ranks[n]
  DataCube core_;
};

StatusOr<TuckerModel> BuildTuckerModel(const DataCube& cube,
                                       const std::array<std::size_t, 3>& ranks);

/// Synthetic sales cube with low multilinear rank plus noise and spikes:
/// the workload for bench/datacube.
struct SalesCubeConfig {
  std::size_t num_products = 120;
  std::size_t num_stores = 30;
  std::size_t num_weeks = 52;
  std::size_t latent_rank = 4;
  double noise = 0.05;
  double spike_probability = 0.001;
  std::uint64_t seed = 11;
};
DataCube GenerateSalesCube(const SalesCubeConfig& config);

}  // namespace tsc

#endif  // TSC_CUBE_DATACUBE_H_
