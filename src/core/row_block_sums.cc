#include "core/row_block_sums.h"

#include <cmath>
#include <limits>

namespace tsc {

RowBlockSums::RowBlockSums(std::size_t rows, std::size_t k)
    : rows_(rows),
      k_(k),
      blocks_((rows + kRowBlock - 1) / kRowBlock, k),
      superblocks_((rows + kRowSuperblock - 1) / kRowSuperblock, k),
      boxes_(blocks_.rows(), 2 * k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < boxes_.rows(); ++b) {
    const std::span<double> box = boxes_.Row(b);
    std::fill(box.begin(), box.begin() + static_cast<std::ptrdiff_t>(k), kInf);
    std::fill(box.begin() + static_cast<std::ptrdiff_t>(k), box.end(), -kInf);
  }
}

void RowBlockSums::Finish() {
  constexpr std::size_t kBlocksPerSuperblock = kRowSuperblock / kRowBlock;
  for (std::size_t b = 0; b < blocks_.rows(); ++b) {
    kernels::Axpy(1.0, blocks_.Row(b).data(),
                  superblocks_.Row(b / kBlocksPerSuperblock).data(), k_);
  }
}

void RowBlockSums::BoxBounds(std::size_t block, const Matrix& weights,
                             std::span<double> magnitude,
                             std::span<double> out) const {
  const std::span<const double> lo = BoxLo(block);
  const std::span<const double> hi = BoxHi(block);
  std::fill(out.begin(), out.end(), 0.0);
  std::fill(magnitude.begin(), magnitude.end(), 0.0);
  for (std::size_t p = 0; p < k_; ++p) {
    const double extent = std::max(std::abs(lo[p]), std::abs(hi[p]));
    const double* w = weights.Row(p).data();
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] += std::max(lo[p] * w[c], hi[p] * w[c]);
      magnitude[c] += extent * std::abs(w[c]);
    }
  }
  const double terms = static_cast<double>(k_ + 2);
  const double relative = 2.0 * terms * std::numeric_limits<double>::epsilon();
  const double absolute =
      2.0 * terms * std::numeric_limits<double>::denorm_min();
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] += relative * magnitude[c] + absolute;
  }
}

}  // namespace tsc
