#ifndef TSC_STORAGE_CACHED_ROW_READER_H_
#define TSC_STORAGE_CACHED_ROW_READER_H_

#include <memory>
#include <vector>

#include "storage/block_cache.h"
#include "storage/row_store.h"

namespace tsc {

/// Row access through a buffer pool: rows are assembled from cached
/// blocks and only cache misses reach the disk. With a skewed access
/// pattern (hot customers queried repeatedly) the effective disk cost
/// per query drops well below the cold 1-access bound.
///
/// Thread safety: concurrent ReadRow calls are safe — the sharded
/// BlockCache synchronizes itself and the underlying reader performs
/// positional reads with no shared cursor (see storage/io_backend.h).
class CachedRowReader {
 public:
  /// Takes ownership of `reader`; the cache holds `capacity_blocks`
  /// blocks of the reader's block size.
  CachedRowReader(RowStoreReader reader, std::size_t capacity_blocks);

  std::size_t rows() const { return reader_->rows(); }
  std::size_t cols() const { return reader_->cols(); }
  QuantScheme scheme() const { return reader_->scheme(); }
  const RowStoreReader& reader() const { return *reader_; }

  /// Reads row `index` into `out` (size cols()) via the cache, decoding
  /// quantized rows.
  Status ReadRow(std::size_t index, std::span<double> out);

  /// The raw (still-encoded) row assembled from cached blocks into
  /// `scratch` (size >= reader().row_stride_bytes()): cached blocks hold
  /// the file bytes verbatim, so quantized stores keep their smaller
  /// footprint — and higher hit rate per byte — all the way through the
  /// buffer pool. The returned view points into `scratch`.
  StatusOr<QuantRowView> ReadQuantRow(std::size_t index,
                                      std::span<std::uint8_t> scratch);

  /// Reads the single cell (row, col) through the cache: only the
  /// block(s) holding the row meta and the one code are touched.
  /// Counted in io.cell_reads.
  StatusOr<double> ReadCell(std::size_t row, std::size_t col);

  /// Disk accesses actually performed (i.e. cache misses, in blocks).
  std::uint64_t disk_accesses() const {
    return reader_->counter().accesses();
  }
  /// Block reads served straight from the cache; with disk_accesses()
  /// this makes the hit rate computable: hits / (hits + misses).
  std::uint64_t cache_hits() const { return cache_.hits(); }
  const BlockCache& cache() const { return cache_; }
  void ResetStats() {
    reader_->counter().Reset();
    cache_.ResetStats();
  }

 private:
  /// Assembles `out.size()` file bytes starting at `offset` from cached
  /// blocks (the common path of the row/cell reads above).
  Status ReadBytes(std::uint64_t offset, std::span<std::uint8_t> out);

  std::unique_ptr<RowStoreReader> reader_;
  BlockCache cache_;
};

}  // namespace tsc

#endif  // TSC_STORAGE_CACHED_ROW_READER_H_
