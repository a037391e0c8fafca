#ifndef TSC_BASELINES_WAVELET_H_
#define TSC_BASELINES_WAVELET_H_

#include <cstdint>
#include <vector>

#include "core/compressed_store.h"
#include "linalg/matrix.h"
#include "storage/row_source.h"
#include "util/status.h"

namespace tsc {

/// The other spectral method Section 2.3 name-checks: per-row orthonormal
/// Haar wavelet transform, keeping the k LARGEST-magnitude coefficients
/// of each row (unlike DCT's fixed low-frequency prefix, wavelets earn
/// their keep by adapting which coefficients survive — good for the
/// spiky, discontinuous signals the paper says defeat Fourier methods).
///
/// Signals are zero-padded to the next power of two internally. Each
/// retained coefficient stores its index, so the paper-style space
/// accounting charges k * (b + 4) bytes per row.
class HaarModel : public CompressedStore {
 public:
  struct Coefficient {
    std::uint32_t index = 0;
    double value = 0.0;
  };

  HaarModel() = default;
  HaarModel(std::vector<std::vector<Coefficient>> rows, std::size_t num_cols,
            std::size_t padded_length);

  std::size_t rows() const override { return rows_.size(); }
  std::size_t cols() const override { return num_cols_; }
  std::size_t k() const {
    return rows_.empty() ? 0 : rows_.front().size();
  }

  /// O(k): each Haar basis function evaluates at a point in O(1).
  double ReconstructCell(std::size_t row, std::size_t col) const override;

  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "haar"; }

 private:
  std::vector<std::vector<Coefficient>> rows_;
  std::size_t num_cols_ = 0;
  std::size_t padded_length_ = 0;
};

/// Builds a Haar model keeping the `k` largest-magnitude coefficients per
/// row; single streaming pass.
StatusOr<HaarModel> BuildHaarModel(RowSource* source, std::size_t k);

/// Forward orthonormal Haar transform of a power-of-two-length signal
/// (exposed for tests). Layout: [0] scaling coefficient, [2^l .. 2^{l+1})
/// level-l details, l = 0 coarsest.
std::vector<double> HaarForward(std::vector<double> signal);

/// Exact inverse of HaarForward.
std::vector<double> HaarInverse(std::vector<double> coefficients);

/// Value of the orthonormal Haar basis function `index` at position
/// `pos`, for signals of (power-of-two) length `length`.
double HaarBasisValue(std::size_t length, std::size_t index, std::size_t pos);

}  // namespace tsc

#endif  // TSC_BASELINES_WAVELET_H_
