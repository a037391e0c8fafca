#ifndef TSC_CORE_SPACE_BUDGET_H_
#define TSC_CORE_SPACE_BUDGET_H_

#include <cstdint>
#include <cstddef>

#include "core/compressed_store.h"
#include "storage/quant.h"

namespace tsc {

/// Space accounting for the SVD family (Section 3.4 and 4.2 of the paper).
/// All sizes are in bytes, at the paper's b = kBytesPerValue.
struct SpaceBudget {
  std::size_t num_rows = 0;       ///< N
  std::size_t num_cols = 0;       ///< M
  std::uint64_t total_bytes = 0;  ///< the compressed-size allowance
  /// Coefficient encoding of the on-disk U factor. A quantized U is
  /// charged at its true row stride (16-byte meta + padded codes), which
  /// both raises the affordable k_max and frees budget for more deltas.
  QuantScheme u_quant = QuantScheme::kF64;

  /// Budget equal to `space_percent`% of the uncompressed N*M*b matrix.
  static SpaceBudget FromPercent(std::size_t num_rows, std::size_t num_cols,
                                 double space_percent);

  /// Bytes consumed by a rank-k truncated SVD: N rows of U at the
  /// u_quant row stride, plus (k + k*M) * b for the eigenvalues and V
  /// (Eq. 9 numerator). With u_quant = f64 this is the paper's
  /// (N*k + k + k*M) * b exactly.
  std::uint64_t SvdBytes(std::size_t k) const;

  /// Largest k whose SVD representation fits the budget (the paper's
  /// k_max). Returns 0 when even k=1 does not fit.
  std::size_t MaxK() const;

  /// Number of outlier deltas gamma_k affordable after paying for a rank-k
  /// SVD, at `delta_bytes` per stored (row, column, delta) triplet.
  std::uint64_t DeltaCount(std::size_t k, std::uint64_t delta_bytes) const;

  /// The paper's approximation s ~= k/M of Eq. 9 (exposed for tests and
  /// documentation).
  double ApproximateSpaceFraction(std::size_t k) const;
};

/// Default on-disk cost of one delta triplet: packed 8-byte cell key
/// (row * M + column, the hash key of Section 4.2) plus an 8-byte double.
constexpr std::uint64_t kDefaultDeltaBytes = 16;

}  // namespace tsc

#endif  // TSC_CORE_SPACE_BUDGET_H_
