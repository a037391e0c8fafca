#include "storage/row_store.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "util/logging.h"

namespace tsc {
namespace {

constexpr char kMagic[8] = {'T', 'S', 'C', 'R', 'O', 'W', 'S', '1'};
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 8;  // magic + rows + cols

// The quantized container: magic + rows + cols + scheme + reserved pad.
// 32 bytes, so with the 8-byte-padded row stride every row (and its
// leading scale/offset doubles) stays 8-byte aligned in an mmap view.
constexpr char kMagicQ[8] = {'T', 'S', 'C', 'R', 'O', 'W', 'Q', '1'};
constexpr std::uint64_t kHeaderBytesQ = 8 + 8 + 8 + 4 + 4;

void CountCellRead() {
  static obs::Counter& cell_reads =
      obs::MetricRegistry::Default().GetCounter("io.cell_reads");
  cell_reads.Increment();
}

}  // namespace

void DiskAccessCounter::RecordRead(std::uint64_t offset,
                                   std::uint64_t length) {
  if (length == 0) return;
  static obs::Counter& accesses =
      obs::MetricRegistry::Default().GetCounter("storage.disk.accesses");
  static obs::Counter& bytes_read =
      obs::MetricRegistry::Default().GetCounter("storage.disk.bytes_read");
  const std::uint64_t first = offset / block_size_;
  const std::uint64_t last = (offset + length - 1) / block_size_;
  accesses_.fetch_add(last - first + 1, std::memory_order_relaxed);
  bytes_read_.fetch_add(length, std::memory_order_relaxed);
  accesses.Add(last - first + 1);
  bytes_read.Add(length);
  obs::ChargeBlocksFetched(last - first + 1);
}

StatusOr<RowStoreWriter> RowStoreWriter::Create(const std::string& path,
                                                std::size_t cols,
                                                QuantScheme scheme) {
  if (cols == 0) return Status::InvalidArgument("cols must be positive");
  RowStoreWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) return Status::IoError("cannot create: " + path);
  writer.cols_ = cols;
  writer.scheme_ = scheme;
  writer.closed_ = false;
  const std::uint64_t zero_rows = 0;
  const std::uint64_t cols64 = cols;
  if (scheme == QuantScheme::kF64) {
    writer.out_.write(kMagic, sizeof(kMagic));
    writer.out_.write(reinterpret_cast<const char*>(&zero_rows), 8);
    writer.out_.write(reinterpret_cast<const char*>(&cols64), 8);
  } else {
    writer.out_.write(kMagicQ, sizeof(kMagicQ));
    writer.out_.write(reinterpret_cast<const char*>(&zero_rows), 8);
    writer.out_.write(reinterpret_cast<const char*>(&cols64), 8);
    const std::uint32_t scheme32 = static_cast<std::uint32_t>(scheme);
    const std::uint32_t reserved = 0;
    writer.out_.write(reinterpret_cast<const char*>(&scheme32), 4);
    writer.out_.write(reinterpret_cast<const char*>(&reserved), 4);
    // Zeroed once: AppendRow overwrites meta + codes, so only the tail
    // padding relies on this (deterministic file bytes).
    writer.row_buf_.assign(QuantRowStride(scheme, cols), 0);
  }
  if (!writer.out_) return Status::IoError("header write failed: " + path);
  return writer;
}

Status RowStoreWriter::AppendRow(std::span<const double> row) {
  if (closed_) return Status::FailedPrecondition("writer is closed");
  if (row.size() != cols_) {
    return Status::InvalidArgument("row width mismatch");
  }
  if (scheme_ == QuantScheme::kF64) {
    out_.write(reinterpret_cast<const char*>(row.data()),
               static_cast<std::streamsize>(row.size() * sizeof(double)));
  } else {
    const QuantRowMeta meta = ComputeQuantRowMeta(scheme_, row);
    std::memcpy(row_buf_.data(), &meta.scale, 8);
    std::memcpy(row_buf_.data() + 8, &meta.offset, 8);
    EncodeQuantRow(scheme_, row, meta, row_buf_.data() + kQuantRowMetaBytes);
    out_.write(reinterpret_cast<const char*>(row_buf_.data()),
               static_cast<std::streamsize>(row_buf_.size()));
  }
  if (!out_) return Status::IoError("row write failed");
  ++rows_written_;
  return Status::Ok();
}

Status RowStoreWriter::AppendMatrix(const Matrix& m) {
  if (m.cols() != cols_) return Status::InvalidArgument("cols mismatch");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    TSC_RETURN_IF_ERROR(AppendRow(m.Row(i)));
  }
  return Status::Ok();
}

Status RowStoreWriter::Close() {
  if (closed_) return Status::FailedPrecondition("writer already closed");
  closed_ = true;
  out_.seekp(sizeof(kMagic), std::ios::beg);
  const std::uint64_t rows64 = rows_written_;
  out_.write(reinterpret_cast<const char*>(&rows64), 8);
  out_.flush();
  if (!out_) return Status::IoError("header patch failed");
  out_.close();
  return Status::Ok();
}

StatusOr<RowStoreReader> RowStoreReader::Open(const std::string& path) {
  return Open(path, DefaultIoBackendKind());
}

StatusOr<RowStoreReader> RowStoreReader::Open(const std::string& path,
                                              IoBackendKind backend) {
  RowStoreReader reader;
  TSC_ASSIGN_OR_RETURN(reader.io_, IoBackend::Open(path, backend));
  reader.path_ = path;
  if (reader.io_->size() < kHeaderBytes) {
    return Status::IoError("truncated header in " + path);
  }
  std::uint8_t header[kHeaderBytesQ] = {};
  const bool quantized =
      [&] {
        std::uint8_t magic[8] = {};
        return reader.io_->ReadAt(0, magic).ok() &&
               std::memcmp(magic, kMagicQ, sizeof(kMagicQ)) == 0;
      }();
  const std::uint64_t header_bytes = quantized ? kHeaderBytesQ : kHeaderBytes;
  if (reader.io_->size() < header_bytes) {
    return Status::IoError("truncated header in " + path);
  }
  TSC_RETURN_IF_ERROR(reader.io_->ReadAt(
      0, std::span<std::uint8_t>(header, header_bytes)));
  if (!quantized && std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad magic in " + path);
  }
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::memcpy(&rows, header + 8, 8);
  std::memcpy(&cols, header + 16, 8);
  if (cols == 0) return Status::IoError("bad header in " + path);
  QuantScheme scheme = QuantScheme::kF64;
  if (quantized) {
    std::uint32_t scheme32 = 0;
    std::memcpy(&scheme32, header + 24, 4);
    if (scheme32 == 0 || scheme32 > static_cast<std::uint32_t>(
                                        QuantScheme::kI8)) {
      return Status::IoError("bad quant scheme in " + path);
    }
    scheme = static_cast<QuantScheme>(scheme32);
  }
  // Guard rows * stride against uint64 overflow before trusting it: a
  // corrupt header must not wrap into a small "valid" payload size.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (cols > (kMax - kQuantRowMetaBytes) / sizeof(double)) {
    return Status::InvalidArgument("row store dimensions overflow: " + path);
  }
  const std::uint64_t stride = QuantRowStride(scheme, cols);
  if (rows != 0 && rows > (kMax - header_bytes) / stride) {
    return Status::InvalidArgument("row store dimensions overflow: " + path);
  }
  const std::uint64_t payload = rows * stride;
  // A truncated (or padded) U file fails here, at open, instead of with a
  // confusing "short row read" on some later query.
  if (reader.io_->size() != header_bytes + payload) {
    return Status::IoError("row store size mismatch in " + path +
                           ": header promises " +
                           std::to_string(header_bytes + payload) +
                           " bytes, file has " +
                           std::to_string(reader.io_->size()));
  }
  reader.rows_ = rows;
  reader.cols_ = cols;
  reader.scheme_ = scheme;
  reader.row_stride_ = static_cast<std::size_t>(stride);
  reader.header_bytes_ = header_bytes;
  reader.payload_bytes_ = payload;
  return reader;
}

QuantRowView RowStoreReader::ViewOverRowBytes(
    const std::uint8_t* row_bytes) const {
  QuantRowView view;
  view.scheme = scheme_;
  view.n = cols_;
  if (scheme_ == QuantScheme::kF64) {
    view.data = row_bytes;
    return view;
  }
  std::memcpy(&view.scale, row_bytes, 8);
  std::memcpy(&view.offset, row_bytes + 8, 8);
  view.data = row_bytes + kQuantRowMetaBytes;
  return view;
}

Status RowStoreReader::ReadRow(std::size_t index, std::span<double> out) {
  if (index >= rows_) return Status::OutOfRange("row index out of range");
  if (out.size() != cols_) return Status::InvalidArgument("buffer size");
  if (scheme_ == QuantScheme::kF64) {
    const std::uint64_t offset =
        header_bytes_ +
        static_cast<std::uint64_t>(index) * cols_ * sizeof(double);
    const std::uint64_t length = cols_ * sizeof(double);
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        offset, std::span<std::uint8_t>(
                    reinterpret_cast<std::uint8_t*>(out.data()), length)));
    counter_.RecordRead(offset, length);
    return Status::Ok();
  }
  // Quantized: fetch the raw row (zero-copy under mmap) and decode.
  std::vector<std::uint8_t> buf(io_->Mapped().empty() ? row_stride_ : 0);
  TSC_ASSIGN_OR_RETURN(const QuantRowView view, ReadQuantRow(index, buf));
  DecodeQuantRow(view, out);
  return Status::Ok();
}

StatusOr<std::span<const double>> RowStoreReader::ReadRowView(
    std::size_t index, std::span<double> scratch) {
  if (index >= rows_) return Status::OutOfRange("row index out of range");
  if (scratch.size() != cols_) return Status::InvalidArgument("buffer size");
  const std::span<const std::uint8_t> mapped = io_->Mapped();
  if (scheme_ == QuantScheme::kF64 && !mapped.empty()) {
    const std::uint64_t offset =
        header_bytes_ +
        static_cast<std::uint64_t>(index) * cols_ * sizeof(double);
    counter_.RecordRead(offset, cols_ * sizeof(double));
    // The payload starts at byte 24, so every row is 8-byte aligned in
    // the mapping and safe to view as doubles.
    return std::span<const double>(
        reinterpret_cast<const double*>(mapped.data() + offset), cols_);
  }
  TSC_RETURN_IF_ERROR(ReadRow(index, scratch));
  return std::span<const double>(scratch.data(), scratch.size());
}

StatusOr<QuantRowView> RowStoreReader::ReadQuantRow(
    std::size_t index, std::span<std::uint8_t> scratch) {
  if (index >= rows_) return Status::OutOfRange("row index out of range");
  const std::uint64_t offset =
      header_bytes_ + static_cast<std::uint64_t>(index) * row_stride_;
  const std::span<const std::uint8_t> mapped = io_->Mapped();
  if (!mapped.empty()) {
    counter_.RecordRead(offset, row_stride_);
    // Header and stride are both 8-byte multiples, so the meta doubles
    // (and f64 coefficients) are aligned in the mapping.
    return ViewOverRowBytes(mapped.data() + offset);
  }
  if (scratch.size() < row_stride_) {
    return Status::InvalidArgument("scratch smaller than row stride");
  }
  TSC_RETURN_IF_ERROR(io_->ReadAt(offset, scratch.subspan(0, row_stride_)));
  counter_.RecordRead(offset, row_stride_);
  return ViewOverRowBytes(scratch.data());
}

StatusOr<double> RowStoreReader::ReadCell(std::size_t row, std::size_t col) {
  if (row >= rows_ || col >= cols_) {
    return Status::OutOfRange("cell out of range");
  }
  CountCellRead();
  const std::uint64_t row_offset =
      header_bytes_ + static_cast<std::uint64_t>(row) * row_stride_;
  const std::size_t elem_bytes = QuantElemBytes(scheme_);
  const std::uint64_t elem_offset =
      scheme_ == QuantScheme::kF64
          ? row_offset + col * sizeof(double)
          : row_offset + kQuantRowMetaBytes + col * elem_bytes;
  double value = 0.0;
  const std::span<const std::uint8_t> mapped = io_->Mapped();
  if (!mapped.empty()) {
    // The backend's cached path: the page cache already holds (or will
    // fault in) the block; no read syscall is issued.
    value = DecodeQuantValue(ViewOverRowBytes(mapped.data() + row_offset),
                             col);
  } else if (scheme_ == QuantScheme::kF64) {
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        elem_offset,
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&value),
                                sizeof(value))));
  } else {
    // Meta + the one code: two tiny positional reads of only the bytes
    // the cell needs.
    std::uint8_t meta[kQuantRowMetaBytes] = {};
    TSC_RETURN_IF_ERROR(io_->ReadAt(row_offset, meta));
    std::uint8_t code[sizeof(double)] = {};
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        elem_offset, std::span<std::uint8_t>(code, elem_bytes)));
    QuantRowView view;
    view.scheme = scheme_;
    view.n = 1;
    view.data = code;
    std::memcpy(&view.scale, meta, 8);
    std::memcpy(&view.offset, meta + 8, 8);
    value = DecodeQuantValue(view, 0);
  }
  // A real disk still fetches the whole block containing the cell.
  const std::uint64_t block = elem_offset / counter_.block_size();
  counter_.RecordRead(block * counter_.block_size(), counter_.block_size());
  return value;
}

Status RowStoreReader::ForEachRowUncounted(
    const std::function<void(std::size_t, std::span<const double>)>& fn)
    const {
  if (rows_ == 0) return Status::Ok();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path_);
  in.seekg(static_cast<std::streamoff>(header_bytes_));
  // About 1 MiB per read. The stride is a multiple of 8, so a chunk of
  // rows fits a buffer of doubles exactly, aligned for f64 rows and
  // for the quantized rows' meta.
  const std::size_t chunk_rows =
      std::max<std::size_t>(1, (std::size_t{1} << 20) / row_stride_);
  std::vector<double> chunk(chunk_rows * row_stride_ / sizeof(double));
  std::vector<double> row(cols_);
  for (std::size_t first = 0; first < rows_; first += chunk_rows) {
    const std::size_t count = std::min(chunk_rows, rows_ - first);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(count * row_stride_));
    if (!in) return Status::IoError("short read in " + path_);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(chunk.data());
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint8_t* row_bytes = bytes + r * row_stride_;
      if (scheme_ == QuantScheme::kF64) {
        fn(first + r, std::span<const double>(
                          reinterpret_cast<const double*>(row_bytes), cols_));
      } else {
        DecodeQuantRow(ViewOverRowBytes(row_bytes), row);
        fn(first + r, row);
      }
    }
  }
  return Status::Ok();
}

Status RowStoreReader::ReadBlock(std::uint64_t block_id,
                                 std::span<std::uint8_t> out) {
  const std::size_t block_size = counter_.block_size();
  if (out.size() != block_size) {
    return Status::InvalidArgument("block buffer size mismatch");
  }
  const std::uint64_t offset = block_id * block_size;
  const std::uint64_t file_size = file_bytes();
  if (offset >= file_size) return Status::OutOfRange("block beyond file");
  const std::uint64_t want = std::min<std::uint64_t>(block_size,
                                                     file_size - offset);
  TSC_RETURN_IF_ERROR(io_->ReadAt(offset, out.subspan(0, want)));
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(want), out.end(), 0);
  counter_.RecordRead(offset, want);
  return Status::Ok();
}

StatusOr<Matrix> RowStoreReader::ReadAll() {
  Matrix m(rows_, cols_);
  if (payload_bytes_ == 0) return m;
  if (scheme_ == QuantScheme::kF64) {
    // One bulk read of the whole payload: rows*cols doubles are
    // contiguous on disk exactly as they are in the Matrix, and the
    // access counter sees one payload-sized sequential read instead of
    // `rows` seeks.
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        header_bytes_,
        std::span<std::uint8_t>(
            reinterpret_cast<std::uint8_t*>(m.data().data()),
            payload_bytes_)));
    counter_.RecordRead(header_bytes_, payload_bytes_);
    return m;
  }
  // Quantized: same single payload-sized read, decoded row by row.
  std::vector<std::uint8_t> payload(payload_bytes_);
  TSC_RETURN_IF_ERROR(io_->ReadAt(header_bytes_, payload));
  counter_.RecordRead(header_bytes_, payload_bytes_);
  for (std::size_t i = 0; i < rows_; ++i) {
    DecodeQuantRow(ViewOverRowBytes(payload.data() + i * row_stride_),
                   m.Row(i));
  }
  return m;
}

Status WriteMatrixFile(const std::string& path, const Matrix& m,
                       QuantScheme scheme) {
  TSC_ASSIGN_OR_RETURN(RowStoreWriter writer,
                       RowStoreWriter::Create(path, m.cols(), scheme));
  TSC_RETURN_IF_ERROR(writer.AppendMatrix(m));
  return writer.Close();
}

StatusOr<bool> FileRowSource::NextRow(std::span<double> out) {
  if (next_row_ >= reader_.rows()) return false;
  TSC_RETURN_IF_ERROR(reader_.ReadRow(next_row_, out));
  ++next_row_;
  return true;
}

}  // namespace tsc
