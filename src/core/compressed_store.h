#ifndef TSC_CORE_COMPRESSED_STORE_H_
#define TSC_CORE_COMPRESSED_STORE_H_

#include <cstdint>
#include <span>
#include <string>

#include "linalg/matrix.h"
#include "util/status.h"

namespace tsc {

class SvddModel;

/// The paper's b, bytes per stored number: the original matrix and every
/// number a model stores are 8-byte doubles (a quantized U row store is
/// charged at its own row stride).
constexpr std::uint64_t kBytesPerValue = 8;

/// A compressed representation of an N x M time-sequence matrix that
/// supports "random access": reconstructing any cell in time independent
/// of N and M. Every compression method in this library (SVD, SVDD, DCT,
/// clustering) implements this interface, which is what the query engine
/// and all benchmarks program against.
class CompressedStore {
 public:
  virtual ~CompressedStore() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// Approximate value of cell (row, col). Requires row < rows() and
  /// col < cols().
  virtual double ReconstructCell(std::size_t row, std::size_t col) const = 0;

  /// Approximate full row; `out` must have size cols(). The default
  /// implementation calls ReconstructCell per column; models override it
  /// when a row can be formed more efficiently.
  virtual void ReconstructRow(std::size_t row, std::span<double> out) const;

  /// Batched region reconstruction: fills `out` (resized to
  /// row_ids.size() x col_ids.size()) with the cross product of the
  /// selected rows and columns. The default reconstructs each selected
  /// row once and gathers the selected columns; the SVD/SVDD models
  /// override it with a blocked U * (Lambda V^T) product, and return the
  /// Status of a failed U-row read when U stays on disk.
  virtual Status ReconstructRegion(std::span<const std::size_t> row_ids,
                                   std::span<const std::size_t> col_ids,
                                   Matrix* out) const;

  /// Bytes the compressed representation occupies on disk under the
  /// space-accounting rules of Section 5.1.
  virtual std::uint64_t CompressedBytes() const = 0;

  /// Short method label used in benchmark tables, e.g. "svdd".
  virtual std::string MethodName() const = 0;

  /// The SVDD model linear aggregates are answered from without
  /// reconstructing cells (DESIGN.md §14), or nullptr when the store is
  /// not one. The model returns itself, in memory or over the disk
  /// layout.
  virtual const SvddModel* compressed_domain() const { return nullptr; }

  /// Materializes the full reconstruction X-hat (tests and small data).
  Matrix ReconstructAll() const;

  /// Storage as a percent of the uncompressed matrix (the paper's s%).
  double SpacePercent() const;
};

}  // namespace tsc

#endif  // TSC_CORE_COMPRESSED_STORE_H_
