#include "storage/cached_row_reader.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace tsc {

CachedRowReader::CachedRowReader(RowStoreReader reader,
                                 std::size_t capacity_blocks)
    : reader_(std::make_unique<RowStoreReader>(std::move(reader))),
      cache_(capacity_blocks, reader_->counter().block_size()) {}

Status CachedRowReader::ReadBytes(std::uint64_t offset,
                                  std::span<std::uint8_t> out) {
  const std::size_t block_size = cache_.block_size();
  std::uint8_t* dest = out.data();
  std::uint64_t remaining = out.size();
  std::uint64_t cursor = offset;
  while (remaining > 0) {
    const std::uint64_t block_id = cursor / block_size;
    const std::uint64_t in_block = cursor % block_size;
    const std::uint64_t take =
        std::min<std::uint64_t>(remaining, block_size - in_block);
    TSC_ASSIGN_OR_RETURN(
        const BlockCache::Handle block,
        cache_.Get(block_id, [this](std::uint64_t id, BlockCache::Block* data) {
          return reader_->ReadBlock(id, *data);
        }));
    std::memcpy(dest, block->data() + in_block, take);
    dest += take;
    cursor += take;
    remaining -= take;
  }
  return Status::Ok();
}

Status CachedRowReader::ReadRow(std::size_t index, std::span<double> out) {
  if (index >= rows()) return Status::OutOfRange("row index out of range");
  if (out.size() != cols()) return Status::InvalidArgument("buffer size");
  const std::uint64_t stride = reader_->row_stride_bytes();
  const std::uint64_t offset =
      reader_->header_bytes() + static_cast<std::uint64_t>(index) * stride;
  if (reader_->scheme() == QuantScheme::kF64) {
    return ReadBytes(offset, std::span<std::uint8_t>(
                                 reinterpret_cast<std::uint8_t*>(out.data()),
                                 out.size() * sizeof(double)));
  }
  std::vector<std::uint8_t> raw(stride);
  TSC_ASSIGN_OR_RETURN(const QuantRowView view, ReadQuantRow(index, raw));
  DecodeQuantRow(view, out);
  return Status::Ok();
}

StatusOr<QuantRowView> CachedRowReader::ReadQuantRow(
    std::size_t index, std::span<std::uint8_t> scratch) {
  if (index >= rows()) return Status::OutOfRange("row index out of range");
  const std::uint64_t stride = reader_->row_stride_bytes();
  if (scratch.size() < stride) {
    return Status::InvalidArgument("scratch smaller than row stride");
  }
  const std::uint64_t offset =
      reader_->header_bytes() + static_cast<std::uint64_t>(index) * stride;
  TSC_RETURN_IF_ERROR(ReadBytes(offset, scratch.subspan(0, stride)));
  QuantRowView view;
  view.scheme = reader_->scheme();
  view.n = cols();
  if (view.scheme == QuantScheme::kF64) {
    view.data = scratch.data();
    return view;
  }
  std::memcpy(&view.scale, scratch.data(), 8);
  std::memcpy(&view.offset, scratch.data() + 8, 8);
  view.data = scratch.data() + kQuantRowMetaBytes;
  return view;
}

StatusOr<double> CachedRowReader::ReadCell(std::size_t row, std::size_t col) {
  if (row >= rows() || col >= cols()) {
    return Status::OutOfRange("cell out of range");
  }
  static obs::Counter& cell_reads =
      obs::MetricRegistry::Default().GetCounter("io.cell_reads");
  cell_reads.Increment();
  const QuantScheme scheme = reader_->scheme();
  const std::uint64_t row_offset =
      reader_->header_bytes() +
      static_cast<std::uint64_t>(row) * reader_->row_stride_bytes();
  if (scheme == QuantScheme::kF64) {
    double value = 0.0;
    TSC_RETURN_IF_ERROR(ReadBytes(
        row_offset + col * sizeof(double),
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&value),
                                sizeof(value))));
    return value;
  }
  const std::size_t elem_bytes = QuantElemBytes(scheme);
  std::uint8_t meta[kQuantRowMetaBytes] = {};
  TSC_RETURN_IF_ERROR(ReadBytes(row_offset, meta));
  std::uint8_t code[sizeof(double)] = {};
  TSC_RETURN_IF_ERROR(
      ReadBytes(row_offset + kQuantRowMetaBytes + col * elem_bytes,
                std::span<std::uint8_t>(code, elem_bytes)));
  QuantRowView view;
  view.scheme = scheme;
  view.n = 1;
  view.data = code;
  std::memcpy(&view.scale, meta, 8);
  std::memcpy(&view.offset, meta + 8, 8);
  return DecodeQuantValue(view, 0);
}

}  // namespace tsc
