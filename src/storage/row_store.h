#ifndef TSC_STORAGE_ROW_STORE_H_
#define TSC_STORAGE_ROW_STORE_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "storage/io_backend.h"
#include "storage/quant.h"
#include "storage/row_source.h"
#include "util/status.h"

namespace tsc {

/// Counts simulated disk-block accesses. Every read through a RowStoreReader
/// reports the set of `block_size`-byte blocks it touched; this is how the
/// library demonstrates the paper's headline property that one cell
/// reconstruction costs ~1 disk access.
///
/// The counts are relaxed atomics so concurrent readers (the pread/mmap
/// backends allow them) account without racing. Note that mmap serves
/// rows without an explicit read syscall; the counter still records the
/// blocks each access logically touches, which keeps the paper's
/// 1-access-per-cell accounting meaningful across backends.
class DiskAccessCounter {
 public:
  explicit DiskAccessCounter(std::size_t block_size = kDefaultBlockSize)
      : block_size_(block_size) {}

  DiskAccessCounter(DiskAccessCounter&& other) noexcept
      : block_size_(other.block_size_),
        accesses_(other.accesses_.load(std::memory_order_relaxed)),
        bytes_read_(other.bytes_read_.load(std::memory_order_relaxed)) {}
  DiskAccessCounter& operator=(DiskAccessCounter&& other) noexcept {
    block_size_ = other.block_size_;
    accesses_.store(other.accesses_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    bytes_read_.store(other.bytes_read_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  static constexpr std::size_t kDefaultBlockSize = 8192;

  /// Records a contiguous byte-range read; counts the blocks it spans.
  /// Thread-safe.
  void RecordRead(std::uint64_t offset, std::uint64_t length);

  std::uint64_t accesses() const {
    return accesses_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  std::size_t block_size() const { return block_size_; }
  void Reset() {
    accesses_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t block_size_;
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

/// Writes an N x M matrix file row by row, so a dataset larger than
/// memory can be produced by a streaming generator. The f64 scheme emits
/// the original row-major binary "TSCROWS1" format unchanged; the
/// quantized schemes emit "TSCROWQ1", where every row is its 16-byte
/// scale/offset meta followed by the 8-byte-padded codes
/// (QuantRowStride). AppendRow encodes each row as it is written.
class RowStoreWriter {
 public:
  /// Creates `path`, fixing the column count and coefficient encoding;
  /// rows() is finalized by the number of AppendRow calls (the header is
  /// patched on Close).
  static StatusOr<RowStoreWriter> Create(
      const std::string& path, std::size_t cols,
      QuantScheme scheme = QuantScheme::kF64);

  RowStoreWriter(RowStoreWriter&&) = default;
  RowStoreWriter& operator=(RowStoreWriter&&) = default;

  Status AppendRow(std::span<const double> row);

  /// Convenience: appends every row of `m` (cols must match).
  Status AppendMatrix(const Matrix& m);

  /// Patches the row count into the header and closes the file. Must be
  /// called exactly once; the destructor does not write.
  Status Close();

  std::size_t rows_written() const { return rows_written_; }
  std::size_t cols() const { return cols_; }
  QuantScheme scheme() const { return scheme_; }

 private:
  RowStoreWriter() = default;

  std::ofstream out_;
  std::size_t cols_ = 0;
  std::size_t rows_written_ = 0;
  QuantScheme scheme_ = QuantScheme::kF64;
  std::vector<std::uint8_t> row_buf_;  ///< one encoded row (quant schemes)
  bool closed_ = true;
};

/// Where a run of stored rows lies inside a larger file (a model file's
/// U section): `rows` rows of `cols` coefficients under `scheme`, each
/// QuantRowStride(scheme, cols) bytes (TSCROWS1 rows for kF64, TSCROWQ1
/// rows otherwise), the first one at byte `offset`.
struct RowImage {
  std::uint64_t offset = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  QuantScheme scheme = QuantScheme::kF64;
};

/// Random and sequential access to a "TSCROWS1" / "TSCROWQ1" matrix
/// file, or to a row image inside a larger file, with every read
/// accounted against a DiskAccessCounter.
///
/// All reads go through a pluggable IoBackend (storage/io_backend.h).
/// Under the pread and mmap backends concurrent ReadRow/ReadCell/
/// ReadBlock calls on one reader are safe and do not serialize: there is
/// no shared seek cursor. The stream backend stays correct under threads
/// but serializes on an internal mutex.
class RowStoreReader {
 public:
  /// Opens `path` with the TSC_IO-resolved default backend and validates
  /// the header, including that the physical file size matches
  /// header + rows * row-stride exactly.
  static StatusOr<RowStoreReader> Open(const std::string& path);
  /// Same, with an explicit I/O backend.
  static StatusOr<RowStoreReader> Open(const std::string& path,
                                       IoBackendKind backend);
  /// Opens the rows of `image` inside `path`; the rest of the file is
  /// never read. The image must fit inside the file. Rows are viewed in
  /// place under mmap only when image.offset is 8-byte aligned; an
  /// unaligned image is copied row by row into the caller's scratch.
  static StatusOr<RowStoreReader> OpenImage(const std::string& path,
                                            const RowImage& image,
                                            IoBackendKind backend);

  RowStoreReader(RowStoreReader&&) = default;
  RowStoreReader& operator=(RowStoreReader&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// End of the rows: the file size of a standalone file.
  std::uint64_t file_bytes() const { return header_bytes_ + payload_bytes_; }
  /// Bytes ahead of row 0: the header, or everything in front of an image.
  std::uint64_t header_bytes() const { return header_bytes_; }
  /// Where the block grid of counter() and ReadBlock starts: byte 0 of a
  /// standalone file (header included), the first row of an image, so
  /// an image is counted as if it were a file of its own.
  std::uint64_t block_origin() const { return block_origin_; }

  /// Coefficient encoding of the file (kF64 for "TSCROWS1").
  QuantScheme scheme() const { return scheme_; }
  /// On-disk bytes of one row (meta + padded codes for the quantized
  /// schemes, cols * 8 for f64).
  std::size_t row_stride_bytes() const { return row_stride_; }

  /// The engine serving this reader.
  IoBackendKind backend_kind() const { return io_->kind(); }
  const char* backend_name() const { return io_->name(); }
  const IoBackend& io() const { return *io_; }

  /// Reads row `index` into `out` (size cols()), decoding quantized
  /// rows; one random access.
  Status ReadRow(std::size_t index, std::span<double> out);

  /// Zero-copy row access for f64 files: under the mmap backend the
  /// returned span points straight into the mapping (nothing is copied;
  /// `scratch` is untouched); otherwise the row lands in `scratch` (size
  /// cols()) — quantized files always decode into `scratch`. The access
  /// is accounted exactly like ReadRow. Quantized serving paths that
  /// want the codes themselves use ReadQuantRow instead.
  StatusOr<std::span<const double>> ReadRowView(std::size_t index,
                                                std::span<double> scratch);

  /// The quantized row as stored: under mmap `view.data` points straight
  /// into the mapping (zero-copy, codes and all); otherwise the raw row
  /// bytes are read into `scratch` (size >= row_stride_bytes()) and the
  /// view points there. For f64 files the view's data is the row of
  /// doubles with identity meta. One random access, accounted like
  /// ReadRow; the fused kernels (storage/quant.h) consume the view in
  /// place.
  StatusOr<QuantRowView> ReadQuantRow(std::size_t index,
                                      std::span<std::uint8_t> scratch);

  /// Reads the single cell (row, col) — still accounted as a whole-block
  /// access, exactly like a real disk would behave. Served through the
  /// backend's cached path: straight from the mapping under mmap, and by
  /// a positional read of only the needed bytes (row meta + one code)
  /// otherwise. Counted in io.cell_reads.
  StatusOr<double> ReadCell(std::size_t row, std::size_t col);

  /// Loads the full matrix with one bulk payload read (small files,
  /// tests): a whole-matrix load costs payload/block_size accesses, not
  /// one access per row.
  StatusOr<Matrix> ReadAll();


  /// Reads one whole `counter().block_size()`-byte block by id (block 0
  /// starts at block_origin()). Short reads at the end of the rows are
  /// zero-padded. One disk access. This is the fetch path of the
  /// BlockCache buffer pool.
  Status ReadBlock(std::uint64_t block_id, std::span<std::uint8_t> out);

  DiskAccessCounter& counter() { return counter_; }
  const DiskAccessCounter& counter() const { return counter_; }

 private:
  RowStoreReader(std::unique_ptr<IoBackend> io, const RowImage& image,
                 std::uint64_t stride);

  /// Records a read of file bytes [offset, offset + length) on the block
  /// grid.
  void CountRead(std::uint64_t offset, std::uint64_t length) {
    counter_.RecordRead(offset - block_origin_, length);
  }
  /// Where file byte `offset` of a row is mapped, when rows are read in
  /// place: under mmap, with an 8-byte aligned payload. Null otherwise.
  const std::uint8_t* InPlace(std::uint64_t offset) const {
    const std::span<const std::uint8_t> mapped = io_->Mapped();
    if (mapped.empty() || header_bytes_ % alignof(double) != 0) return nullptr;
    return mapped.data() + (offset - io_->range_offset());
  }

  std::unique_ptr<IoBackend> io_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  QuantScheme scheme_ = QuantScheme::kF64;
  std::size_t row_stride_ = 0;
  std::uint64_t header_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t block_origin_ = 0;
  DiskAccessCounter counter_;
};

/// Writes `m` to `path` in one call, encoding rows under `scheme`.
Status WriteMatrixFile(const std::string& path, const Matrix& m,
                       QuantScheme scheme = QuantScheme::kF64);

/// RowSource streaming a "TSCROWS1" file front to back with a bounded
/// buffer: the multi-pass build path for datasets that do not fit in
/// memory. Reads are accounted in the shared reader's counter.
class FileRowSource final : public RowSource {
 public:
  explicit FileRowSource(RowStoreReader reader)
      : reader_(std::move(reader)) {
    reader_.io().AdviseSequential();
  }

  std::size_t rows() const override { return reader_.rows(); }
  std::size_t cols() const override { return reader_.cols(); }

  StatusOr<bool> NextRow(std::span<double> out) override;

  RowStoreReader& reader() { return reader_; }

 protected:
  Status ResetImpl() override {
    next_row_ = 0;
    return Status::Ok();
  }

 private:
  RowStoreReader reader_;
  std::size_t next_row_ = 0;
};

}  // namespace tsc

#endif  // TSC_STORAGE_ROW_STORE_H_
