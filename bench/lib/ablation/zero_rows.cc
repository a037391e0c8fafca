#include "lib/ablation/zero_rows.h"

#include <algorithm>

#include "storage/row_source.h"
#include "util/logging.h"

namespace tsc {

ZeroRowFilteredStore::ZeroRowFilteredStore(std::vector<bool> is_zero,
                                           SvddModel inner)
    : is_zero_(std::move(is_zero)), inner_(std::move(inner)) {
  compact_index_.resize(is_zero_.size(), 0);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < is_zero_.size(); ++i) {
    if (is_zero_[i]) {
      ++zero_row_count_;
    } else {
      compact_index_[i] = next++;
    }
  }
  TSC_CHECK_EQ(static_cast<std::size_t>(next), inner_.rows());
}

double ZeroRowFilteredStore::ReconstructCell(std::size_t row,
                                             std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  if (is_zero_[row]) return 0.0;  // exact by construction
  return inner_.ReconstructCell(compact_index_[row], col);
}

void ZeroRowFilteredStore::ReconstructRow(std::size_t row,
                                          std::span<double> out) const {
  TSC_CHECK_EQ(out.size(), cols());
  if (is_zero_[row]) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  inner_.ReconstructRow(compact_index_[row], out);
}

std::uint64_t ZeroRowFilteredStore::CompressedBytes() const {
  return inner_.CompressedBytes() + (is_zero_.size() + 7) / 8;
}

StatusOr<ZeroRowFilteredStore> BuildZeroRowFilteredSvdd(
    const Matrix& data, const SvddBuildOptions& options,
    SvddBuildDiagnostics* diagnostics) {
  const std::size_t n = data.rows();
  if (n == 0 || data.cols() == 0) {
    return Status::InvalidArgument("empty matrix");
  }
  std::vector<bool> is_zero(n, false);
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool all_zero = true;
    for (const double v : data.Row(i)) {
      if (v != 0.0) {
        all_zero = false;
        break;
      }
    }
    is_zero[i] = all_zero;
    if (!all_zero) ++active;
  }
  if (active == 0) {
    return Status::InvalidArgument("matrix is entirely zero");
  }

  Matrix compact(active, data.cols());
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_zero[i]) continue;
    std::copy(data.Row(i).begin(), data.Row(i).end(),
              compact.Row(next).begin());
    ++next;
  }

  // Same byte allowance as a plain build at this percent of the FULL
  // matrix, re-expressed as a percent of the compacted one.
  const double full_cells = static_cast<double>(n) * data.cols();
  const double compact_cells = static_cast<double>(active) * data.cols();
  SvddBuildOptions inner_options = options;
  inner_options.space_percent =
      options.space_percent * full_cells / compact_cells;

  MatrixRowSource source(&compact);
  TSC_ASSIGN_OR_RETURN(SvddModel inner,
                       BuildSvddModel(&source, inner_options, diagnostics));
  return ZeroRowFilteredStore(std::move(is_zero), std::move(inner));
}

}  // namespace tsc
