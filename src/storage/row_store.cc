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
// leading scale/offset doubles) starts at a multiple of 8.
constexpr char kMagicQ[8] = {'T', 'S', 'C', 'R', 'O', 'W', 'Q', '1'};
constexpr std::uint64_t kHeaderBytesQ = 8 + 8 + 8 + 4 + 4;

/// Checks `image`'s dimensions and returns its row stride. Guards
/// offset + rows * stride against uint64 overflow before trusting it: a
/// corrupt header must not wrap into a small "valid" size.
StatusOr<std::uint64_t> ImageStride(const std::string& path,
                                    const RowImage& image) {
  if (image.cols == 0) return Status::IoError("bad header in " + path);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (image.cols > (kMax - kQuantRowMetaBytes) / sizeof(double)) {
    return Status::InvalidArgument("row store dimensions overflow: " + path);
  }
  const std::uint64_t stride = QuantRowStride(image.scheme, image.cols);
  if (image.rows != 0 && image.rows > (kMax - image.offset) / stride) {
    return Status::InvalidArgument("row store dimensions overflow: " + path);
  }
  return stride;
}

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
  const std::uint64_t first = offset / block_size_;
  const std::uint64_t last = (offset + length - 1) / block_size_;
  accesses_.fetch_add(last - first + 1, std::memory_order_relaxed);
  bytes_read_.fetch_add(length, std::memory_order_relaxed);
  accesses.Add(last - first + 1);
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
  TSC_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> io, IoBackend::Open(path));
  if (io->size() < kHeaderBytes) {
    return Status::IoError("truncated header in " + path);
  }
  std::uint8_t header[kHeaderBytesQ] = {};
  TSC_RETURN_IF_ERROR(io->ReadAt(0, std::span<std::uint8_t>(header, 8)));
  const bool quantized = std::memcmp(header, kMagicQ, sizeof(kMagicQ)) == 0;
  if (!quantized && std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad magic in " + path);
  }
  const std::uint64_t header_bytes = quantized ? kHeaderBytesQ : kHeaderBytes;
  if (io->size() < header_bytes) {
    return Status::IoError("truncated header in " + path);
  }
  TSC_RETURN_IF_ERROR(
      io->ReadAt(0, std::span<std::uint8_t>(header, header_bytes)));
  RowImage image;
  image.offset = header_bytes;
  std::memcpy(&image.rows, header + 8, 8);
  std::memcpy(&image.cols, header + 16, 8);
  if (quantized) {
    std::uint32_t scheme32 = 0;
    std::memcpy(&scheme32, header + 24, 4);
    if (scheme32 == 0 || scheme32 > static_cast<std::uint32_t>(
                                        QuantScheme::kI8)) {
      return Status::IoError("bad quant scheme in " + path);
    }
    image.scheme = static_cast<QuantScheme>(scheme32);
  }
  TSC_ASSIGN_OR_RETURN(const std::uint64_t stride, ImageStride(path, image));
  // A truncated (or padded) file fails here, at open, instead of with a
  // confusing "short row read" on some later query.
  const std::uint64_t promised = header_bytes + image.rows * stride;
  if (io->size() != promised) {
    return Status::IoError("row store size mismatch in " + path +
                           ": header promises " + std::to_string(promised) +
                           " bytes, file has " + std::to_string(io->size()));
  }
  return RowStoreReader(std::move(io), image, stride);
}

StatusOr<RowStoreReader> RowStoreReader::OpenImage(const std::string& path,
                                                   const RowImage& image) {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t stride, ImageStride(path, image));
  const std::uint64_t payload = image.rows * stride;
  TSC_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> io,
                       IoBackend::OpenRange(path, image.offset, payload));
  if (io->size() < image.offset + payload) {
    return Status::IoError("row image runs past the end of " + path);
  }
  RowStoreReader reader(std::move(io), image, stride);
  reader.block_origin_ = image.offset;
  return reader;
}

RowStoreReader::RowStoreReader(std::unique_ptr<IoBackend> io,
                               const RowImage& image, std::uint64_t stride)
    : io_(std::move(io)),
      rows_(static_cast<std::size_t>(image.rows)),
      cols_(static_cast<std::size_t>(image.cols)),
      scheme_(image.scheme),
      row_stride_(static_cast<std::size_t>(stride)),
      header_bytes_(image.offset),
      payload_bytes_(image.rows * stride) {}

Status RowStoreReader::ReadRow(std::size_t index, std::span<double> out) {
  if (index >= rows_) return Status::OutOfRange("row index out of range");
  if (out.size() != cols_) return Status::InvalidArgument("buffer size");
  if (scheme_ == QuantScheme::kF64) {
    return ReadStoredRows(
        index, 1,
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(out.data()),
                                row_stride_));
  }
  // Quantized: fetch the raw row and decode.
  std::vector<std::uint8_t> buf(row_stride_);
  TSC_ASSIGN_OR_RETURN(const QuantRowView view, ReadQuantRow(index, buf));
  DecodeQuantRow(view, out);
  return Status::Ok();
}

StatusOr<QuantRowView> RowStoreReader::ReadQuantRow(
    std::size_t index, std::span<std::uint8_t> scratch) {
  if (index >= rows_) return Status::OutOfRange("row index out of range");
  if (scratch.size() < row_stride_) {
    return Status::InvalidArgument("scratch smaller than row stride");
  }
  TSC_RETURN_IF_ERROR(
      ReadStoredRows(index, 1, scratch.subspan(0, row_stride_)));
  return StoredRowView(scheme_, scratch.data(), cols_);
}

Status RowStoreReader::ReadStoredRows(std::size_t first, std::size_t count,
                                      std::span<std::uint8_t> out) {
  if (first > rows_ || count > rows_ - first) {
    return Status::OutOfRange("row range out of range");
  }
  if (out.size() != count * row_stride_) {
    return Status::InvalidArgument("buffer size");
  }
  if (count == 0) return Status::Ok();
  const std::uint64_t offset =
      header_bytes_ + static_cast<std::uint64_t>(first) * row_stride_;
  TSC_RETURN_IF_ERROR(io_->ReadAt(offset, out));
  CountRead(offset, out.size());
  return Status::Ok();
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
  if (scheme_ == QuantScheme::kF64) {
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        elem_offset,
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&value),
                                sizeof(value))));
  } else {
    // Meta + the one code: two tiny positional reads of only the bytes
    // the cell needs, into a one-code stored row.
    alignas(8) std::uint8_t cell[kQuantRowMetaBytes + sizeof(double)] = {};
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        row_offset, std::span<std::uint8_t>(cell, kQuantRowMetaBytes)));
    TSC_RETURN_IF_ERROR(io_->ReadAt(
        elem_offset,
        std::span<std::uint8_t>(cell + kQuantRowMetaBytes, elem_bytes)));
    value = DecodeQuantValue(StoredRowView(scheme_, cell, 1), 0);
  }
  // A real disk still fetches the whole block containing the cell.
  const std::uint64_t block_size = counter_.block_size();
  const std::uint64_t block = (elem_offset - block_origin_) / block_size;
  CountRead(block_origin_ + block * block_size, block_size);
  return value;
}

Status RowStoreReader::ReadBlock(std::uint64_t block_id,
                                 std::span<std::uint8_t> out) {
  const std::size_t block_size = counter_.block_size();
  if (out.size() != block_size) {
    return Status::InvalidArgument("block buffer size mismatch");
  }
  const std::uint64_t offset = block_origin_ + block_id * block_size;
  const std::uint64_t file_size = file_bytes();
  if (offset >= file_size) return Status::OutOfRange("block beyond file");
  const std::uint64_t want = std::min<std::uint64_t>(block_size,
                                                     file_size - offset);
  TSC_RETURN_IF_ERROR(io_->ReadAt(offset, out.subspan(0, want)));
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(want), out.end(), 0);
  CountRead(offset, want);
  return Status::Ok();
}

StatusOr<Matrix> RowStoreReader::ReadAll() {
  Matrix m(rows_, cols_);
  if (scheme_ == QuantScheme::kF64) {
    // One bulk read of the whole payload: rows*cols doubles are
    // contiguous on disk exactly as they are in the Matrix, and the
    // access counter sees one payload-sized sequential read instead of
    // `rows` seeks.
    TSC_RETURN_IF_ERROR(ReadStoredRows(
        0, rows_,
        std::span<std::uint8_t>(
            reinterpret_cast<std::uint8_t*>(m.data().data()),
            payload_bytes_)));
    return m;
  }
  // Quantized: same single payload-sized read, decoded row by row.
  std::vector<std::uint8_t> payload(payload_bytes_);
  TSC_RETURN_IF_ERROR(ReadStoredRows(0, rows_, payload));
  for (std::size_t i = 0; i < rows_; ++i) {
    DecodeQuantRow(
        StoredRowView(scheme_, payload.data() + i * row_stride_, cols_),
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
  if (out.size() != reader_.cols()) {
    return Status::InvalidArgument("buffer size");
  }
  const std::size_t stride = reader_.row_stride_bytes();
  if (next_row_ == chunk_end_) {
    const std::size_t count =
        std::min(std::max<std::size_t>(1, kChunkBytes / stride),
                 reader_.rows() - next_row_);
    chunk_.resize(count * stride);
    TSC_RETURN_IF_ERROR(reader_.ReadStoredRows(next_row_, count, chunk_));
    chunk_begin_ = next_row_;
    chunk_end_ = next_row_ + count;
  }
  const std::uint8_t* row =
      chunk_.data() + (next_row_ - chunk_begin_) * stride;
  DecodeQuantRow(StoredRowView(reader_.scheme(), row, reader_.cols()), out);
  ++next_row_;
  return true;
}

}  // namespace tsc
