#ifndef TSC_CORE_ZERO_ROWS_H_
#define TSC_CORE_ZERO_ROWS_H_

#include <memory>
#include <vector>

#include "core/compressed_store.h"
#include "core/svdd_compressor.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace tsc {

/// The Section 6.2 "practical issue": real customer datasets contain
/// many all-zero sequences (customers with no activity). Spending U rows
/// and reconstruction work on them is waste; this wrapper flags them
/// up front, answers their queries with an exact 0, and builds the inner
/// model only on the active rows — so the whole space budget benefits
/// the rows that carry signal.
///
/// The flag structure is an exact bitmap (N bits). The paper suggests a
/// Bloom filter; a bitmap at 1 bit/row is both smaller than a useful
/// filter and exact, so we charge the bitmap to the compressed size.
class ZeroRowFilteredStore : public CompressedStore {
 public:
  ZeroRowFilteredStore() = default;
  ZeroRowFilteredStore(std::vector<bool> is_zero, SvddModel inner);

  std::size_t rows() const override { return is_zero_.size(); }
  std::size_t cols() const override { return inner_.cols(); }

  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;

  /// Inner model bytes plus the N-bit zero-row bitmap.
  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "svdd+zerofilter"; }

  std::size_t zero_row_count() const { return zero_row_count_; }
  bool IsZeroRow(std::size_t row) const { return is_zero_[row]; }
  const SvddModel& inner() const { return inner_; }

 private:
  std::vector<bool> is_zero_;
  std::vector<std::uint32_t> compact_index_;  ///< row -> inner row
  std::size_t zero_row_count_ = 0;
  SvddModel inner_;
};

/// Scans `data` for all-zero rows, builds an SVDD model over the active
/// rows only, and wraps it. Fails (like the plain build) when no active
/// row remains or the budget is too small.
///
/// The space budget is interpreted against the FULL matrix, so the
/// wrapper and a plain SVDD build at the same `options.space_percent`
/// are directly comparable.
StatusOr<ZeroRowFilteredStore> BuildZeroRowFilteredSvdd(
    const Matrix& data, const SvddBuildOptions& options,
    SvddBuildDiagnostics* diagnostics = nullptr);

}  // namespace tsc

#endif  // TSC_CORE_ZERO_ROWS_H_
