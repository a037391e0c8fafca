#ifndef TSC_BASELINES_DCT_H_
#define TSC_BASELINES_DCT_H_

#include <cstddef>
#include <vector>

#include "core/compressed_store.h"
#include "linalg/matrix.h"
#include "storage/row_source.h"
#include "util/status.h"

namespace tsc {

/// The spectral baseline of Section 2.3: every row is transformed with an
/// orthonormal DCT-II and only the first k (low-frequency) coefficients
/// are kept. Chosen by the paper as the representative spectral method
/// because DCT "is very close to optimal when the data is correlated".
class DctModel : public CompressedStore {
 public:
  DctModel() = default;
  DctModel(Matrix coefficients, std::size_t num_cols);

  std::size_t rows() const override { return coefficients_.rows(); }
  std::size_t cols() const override { return num_cols_; }
  std::size_t k() const { return coefficients_.cols(); }

  /// Inverse DCT truncated to the retained coefficients: O(k) per cell.
  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;

  /// N * k coefficients at b bytes each (Section 5.1 accounting).
  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "dct"; }

  const Matrix& coefficients() const { return coefficients_; }

 private:
  Matrix coefficients_;  ///< N x k, row i's first k DCT-II coefficients
  std::size_t num_cols_ = 0;
};

/// Builds a DCT model keeping `k` coefficients per row; streams the
/// source in a single pass. k is clipped to the row length.
StatusOr<DctModel> BuildDctModel(RowSource* source, std::size_t k);

/// Forward orthonormal DCT-II of one signal (exposed for tests):
/// out[f] = a_f * sum_j in[j] * cos(pi * (j + 0.5) * f / M).
std::vector<double> DctForward(std::span<const double> in);

/// Exact inverse of DctForward (all coefficients).
std::vector<double> DctInverse(std::span<const double> coefficients);

/// Whole-matrix 2-D DCT — the "photograph image" treatment Section 2.3
/// explicitly calls "a bad idea ... clearly worse than doing it a row at
/// a time", because adjacent customers are unrelated, so the column
/// direction looks like white noise. Implemented (separably: row DCT
/// then column DCT) so bench/ablation can validate that claim.
Matrix Dct2dForward(const Matrix& x);

/// Exact inverse of Dct2dForward.
Matrix Dct2dInverse(const Matrix& coefficients);

/// Zeroes all but the top-left rows_kept x cols_kept low-frequency block
/// and inverts: the 2-D truncation whose footprint is
/// rows_kept * cols_kept values. Note a single-cell reconstruction from
/// this representation costs O(rows_kept * cols_kept) — far from the
/// O(k) of per-row methods, the paper's other objection.
Matrix Dct2dTruncatedReconstruction(const Matrix& x, std::size_t rows_kept,
                                    std::size_t cols_kept);

}  // namespace tsc

#endif  // TSC_BASELINES_DCT_H_
