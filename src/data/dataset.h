#ifndef TSC_DATA_DATASET_H_
#define TSC_DATA_DATASET_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace tsc {

/// A named N x M time-sequence collection: N sequences ("customers"),
/// M observations each ("days"). This is the unit every compressor,
/// query engine and benchmark operates on.
struct Dataset {
  std::string name;
  Matrix values;
  std::vector<std::string> row_labels;  ///< optional, size rows() or empty
  std::vector<std::string> col_labels;  ///< optional, size cols() or empty

  std::size_t rows() const { return values.rows(); }
  std::size_t cols() const { return values.cols(); }

  /// Uncompressed size: every value an 8-byte double (the paper's b).
  std::uint64_t UncompressedBytes() const {
    return static_cast<std::uint64_t>(rows()) * cols() * sizeof(double);
  }

  /// First `n` sequences, labels carried along — the paper's phone1000,
  /// phone2000, ... subsets of phone100K.
  Dataset Subset(std::size_t n) const;
};

/// Saves/loads `dataset.values` as comma-separated text; a header row with
/// column labels is written when present and detected on load.
Status SaveCsv(const Dataset& dataset, const std::string& path);
StatusOr<Dataset> LoadCsv(const std::string& path, const std::string& name);

/// Saves/loads the values in the binary "TSCROWS1" matrix format
/// (storage/row_store.h); labels are not persisted.
Status SaveBinary(const Dataset& dataset, const std::string& path);
StatusOr<Dataset> LoadBinary(const std::string& path, const std::string& name);

}  // namespace tsc

#endif  // TSC_DATA_DATASET_H_
