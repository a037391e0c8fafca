#include "core/compressed_store.h"

#include <vector>

#include "util/logging.h"

namespace tsc {

void CompressedStore::ReconstructRow(std::size_t row,
                                     std::span<double> out) const {
  TSC_CHECK_EQ(out.size(), cols());
  for (std::size_t j = 0; j < cols(); ++j) out[j] = ReconstructCell(row, j);
}

Status CompressedStore::ReconstructRegion(
    std::span<const std::size_t> row_ids, std::span<const std::size_t> col_ids,
    Matrix* out) const {
  if (out->rows() != row_ids.size() || out->cols() != col_ids.size()) {
    *out = Matrix(row_ids.size(), col_ids.size());
  }
  // One full-row reconstruction per selected row (the pre-batching cost
  // model), then gather the selected columns.
  std::vector<double> scratch(cols());
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    ReconstructRow(row_ids[r], scratch);
    const std::span<double> dst = out->Row(r);
    for (std::size_t c = 0; c < col_ids.size(); ++c) {
      dst[c] = scratch[col_ids[c]];
    }
  }
  return Status::Ok();
}

Matrix CompressedStore::ReconstructAll() const {
  Matrix m(rows(), cols());
  for (std::size_t i = 0; i < rows(); ++i) ReconstructRow(i, m.Row(i));
  return m;
}

double CompressedStore::SpacePercent() const {
  const double original = static_cast<double>(rows()) *
                          static_cast<double>(cols()) *
                          static_cast<double>(kBytesPerValue);
  if (original == 0.0) return 0.0;
  return 100.0 * static_cast<double>(CompressedBytes()) / original;
}

}  // namespace tsc
