#include "core/disk_backed.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "storage/serializer.h"
#include "util/logging.h"

namespace tsc {
namespace {

constexpr std::uint32_t kSidecarMagic = 0x53494443;  // "SIDC"

}  // namespace

Status ExportSvddToDisk(const SvddModel& model, const std::string& u_path,
                        const std::string& sidecar_path) {
  // U, row-wise, as its own row store: the structure the paper assumes
  // lives on disk and is fetched one row per query. The model's quant
  // scheme carries through, so a quantized build serves from quantized
  // rows (the snapped doubles in U re-encode to the same codes). The
  // sidecar is committed inside U's write, so a failure anywhere before
  // U's rename leaves the previous U in place.
  return ReplaceFileAtomically(u_path, [&](const std::string& u_temp) {
    TSC_RETURN_IF_ERROR(WriteMatrixFile(u_temp, model.svd().u(),
                                        model.svd().quant_scheme()));
    return WriteFileAtomically(sidecar_path, [&](BinaryWriter* writer) {
      TSC_RETURN_IF_ERROR(writer->WriteU32(kSidecarMagic));
      TSC_RETURN_IF_ERROR(
          writer->WriteDoubleVector(model.svd().singular_values()));
      TSC_RETURN_IF_ERROR(writer->WriteMatrix(model.svd().v()));
      return model.deltas()->Serialize(writer);
    });
  });
}

StatusOr<DiskBackedStore> DiskBackedStore::Open(
    const std::string& u_path, const std::string& sidecar_path,
    std::size_t cache_blocks) {
  DiskBackedOptions options;
  options.cache_blocks = cache_blocks;
  return Open(u_path, sidecar_path, options);
}

StatusOr<DiskBackedStore> DiskBackedStore::Open(
    const std::string& u_path, const std::string& sidecar_path,
    const DiskBackedOptions& options) {
  DiskBackedStore store;
  const IoBackendKind backend =
      options.io_backend.value_or(DefaultIoBackendKind());
  TSC_ASSIGN_OR_RETURN(RowStoreReader reader,
                       RowStoreReader::Open(u_path, backend));
  const std::size_t u_cols = reader.cols();
  store.u_scheme_ = reader.scheme();
  store.u_row_stride_ = reader.row_stride_bytes();
  store.u_file_bytes_ = reader.file_bytes();
  if (options.cache_blocks > 0) {
    store.cached_ = std::make_unique<CachedRowReader>(std::move(reader),
                                                      options.cache_blocks);
  } else {
    store.u_reader_ = std::make_unique<RowStoreReader>(std::move(reader));
  }

  TSC_ASSIGN_OR_RETURN(BinaryReader sidecar, BinaryReader::Open(sidecar_path));
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, sidecar.ReadU32());
  if (magic != kSidecarMagic) return Status::IoError("not a sidecar file");
  TSC_ASSIGN_OR_RETURN(store.singular_values_, sidecar.ReadDoubleVector());
  TSC_ASSIGN_OR_RETURN(store.v_, sidecar.ReadMatrix());
  TSC_ASSIGN_OR_RETURN(
      store.deltas_,
      DeltaIndex::Deserialize(&sidecar, store.rows(), store.v_.rows()));
  TSC_RETURN_IF_ERROR(sidecar.VerifyChecksum());
  if (u_cols != store.singular_values_.size() ||
      store.v_.cols() != store.singular_values_.size()) {
    return Status::IoError("inconsistent disk-backed model dims");
  }
  // Fold the eigenvalues into V once so every cell is a plain dot
  // against a fetched U row (the same trick the in-memory models use).
  store.weighted_v_ = Matrix(store.v_.rows(), store.v_.cols());
  for (std::size_t j = 0; j < store.v_.rows(); ++j) {
    for (std::size_t m = 0; m < store.v_.cols(); ++m) {
      store.weighted_v_(j, m) = store.singular_values_[m] * store.v_(j, m);
    }
  }
  // U's block sums from the decoded rows, added in row order: the
  // in-memory model's arithmetic over the rows this store serves.
  store.u_sums_ = RowBlockSums(store.rows(), store.k());
  const RowStoreReader& u_file =
      store.cached_ ? store.cached_->reader() : *store.u_reader_;
  TSC_RETURN_IF_ERROR(u_file.ForEachRowUncounted(
      [&](std::size_t i, std::span<const double> row) {
        store.u_sums_.AddRow(i, row.data());
      }));
  store.u_sums_.Finish();
  return store;
}

StatusOr<std::uint64_t> DiskBackedStore::AccumulateRowMass(
    std::span<const IdRange> runs, std::span<double> out) {
  const std::size_t kk = k();
  std::vector<double> row(kk);
  return u_sums_.Accumulate(runs, out, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      TSC_RETURN_IF_ERROR(ReadURow(i, row));
      kernels::Axpy(1.0, row.data(), out.data(), kk);
    }
    return Status::Ok();
  });
}

Status DiskBackedStore::AppendRowDots(std::span<const IdRange> runs,
                                      std::span<const double> weights,
                                      std::vector<double>* out) {
  const std::size_t kk = k();
  std::vector<double> row(kk);
  for (const IdRange& run : runs) {
    for (std::size_t i = run.lo; i <= run.hi; ++i) {
      TSC_RETURN_IF_ERROR(ReadURow(i, row));
      out->push_back(kernels::Dot(row.data(), weights.data(), kk));
    }
  }
  return Status::Ok();
}

Status DiskBackedStore::ReadURow(std::size_t row, std::span<double> out) {
  if (cached_) return cached_->ReadRow(row, out);
  return u_reader_->ReadRow(row, out);
}

StatusOr<QuantRowView> DiskBackedStore::ReadUQuantRow(
    std::size_t row, std::span<std::uint8_t> scratch) {
  if (cached_) return cached_->ReadQuantRow(row, scratch);
  return u_reader_->ReadQuantRow(row, scratch);
}

double DiskBackedStore::CellFromURow(const QuantRowView& urow,
                                     std::size_t row, std::size_t col) {
  // The fused kernel dequantizes in registers while it accumulates, so
  // the quantized row never materializes as doubles.
  const double value = QuantDot(urow, weighted_v_.Row(col).data());
  const std::optional<double> delta = deltas_.Find(row, col);
  return delta.has_value() ? value + *delta : value;
}

StatusOr<double> DiskBackedStore::ReconstructCell(std::size_t row,
                                                  std::size_t col) {
  if (row >= rows() || col >= cols()) {
    return Status::OutOfRange("cell out of range");
  }
  std::vector<std::uint8_t> scratch(u_row_stride_);
  TSC_ASSIGN_OR_RETURN(const QuantRowView urow,
                       ReadUQuantRow(row, scratch));  // the 1 disk access
  return CellFromURow(urow, row, col);
}

Status DiskBackedStore::ReconstructRow(std::size_t row,
                                       std::span<double> out) {
  if (row >= rows()) return Status::OutOfRange("row out of range");
  if (out.size() != cols()) return Status::InvalidArgument("buffer size");
  std::vector<std::uint8_t> scratch(u_row_stride_);
  TSC_ASSIGN_OR_RETURN(const QuantRowView urow, ReadUQuantRow(row, scratch));
  std::fill(out.begin(), out.end(), 0.0);
  QuantGemv(urow, weighted_v_.Row(0).data(), cols(), k(), out.data());
  deltas_.AddToRow(row, out);
  return Status::Ok();
}

Status DiskBackedStore::ReconstructCells(std::span<const CellRef> cells,
                                         std::span<double> out) {
  if (out.size() != cells.size()) {
    return Status::InvalidArgument("output size mismatch");
  }
  if (cells.empty()) return Status::Ok();
  for (const CellRef& cell : cells) {
    if (cell.row >= rows() || cell.col >= cols()) {
      return Status::OutOfRange("cell out of range");
    }
  }
  // Visit cells row-major so each distinct U row is read exactly once.
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&cells](std::size_t a, std::size_t b) {
              if (cells[a].row != cells[b].row) {
                return cells[a].row < cells[b].row;
              }
              return cells[a].col < cells[b].col;
            });
  std::vector<std::uint8_t> scratch(u_row_stride_);
  QuantRowView urow;
  std::size_t loaded_row = std::numeric_limits<std::size_t>::max();
  for (const std::size_t i : order) {
    if (cells[i].row != loaded_row) {
      TSC_ASSIGN_OR_RETURN(urow, ReadUQuantRow(cells[i].row, scratch));
      loaded_row = cells[i].row;
    }
    out[i] = QuantDot(urow, weighted_v_.Row(cells[i].col).data());
  }
  if (deltas_.empty()) return Status::Ok();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::optional<double> delta =
        deltas_.Find(cells[i].row, cells[i].col);
    if (delta.has_value()) out[i] += *delta;
  }
  return Status::Ok();
}

Status DiskBackedStore::ReconstructRegion(
    std::span<const std::size_t> row_ids,
    std::span<const std::size_t> col_ids, Matrix* out) {
  if (out->rows() != row_ids.size() || out->cols() != col_ids.size()) {
    *out = Matrix(row_ids.size(), col_ids.size());
  }
  if (row_ids.empty() || col_ids.empty()) return Status::Ok();
  for (const std::size_t r : row_ids) {
    if (r >= rows()) return Status::OutOfRange("row out of range");
  }
  for (const std::size_t c : col_ids) {
    if (c >= cols()) return Status::OutOfRange("col out of range");
  }
  const std::size_t kk = k();
  // Gather the selected U rows (one read each; a quantized row
  // dequantizes once here, amortized over the whole column block) and
  // the selected Lambda-weighted V rows into dense blocks, then run the
  // same blocked product the in-memory models use.
  Matrix a(row_ids.size(), kk);
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    TSC_RETURN_IF_ERROR(ReadURow(row_ids[r], a.Row(r)));
  }
  Matrix b(col_ids.size(), kk);
  for (std::size_t c = 0; c < col_ids.size(); ++c) {
    const std::span<const double> src = weighted_v_.Row(col_ids[c]);
    std::copy(src.begin(), src.end(), b.Row(c).begin());
  }
  kernels::GemmNT(a.Row(0).data(), row_ids.size(), kk, b.Row(0).data(),
                  col_ids.size(), kk, kk, out->Row(0).data(),
                  col_ids.size());
  deltas_.AddToRegion(row_ids, col_ids, out);
  return Status::Ok();
}

double DiskBackedStoreView::ReconstructCell(std::size_t row,
                                            std::size_t col) const {
  const StatusOr<double> value = store_->ReconstructCell(row, col);
  return value.ok() ? *value : std::numeric_limits<double>::quiet_NaN();
}

void DiskBackedStoreView::ReconstructRow(std::size_t row,
                                         std::span<double> out) const {
  if (!store_->ReconstructRow(row, out).ok()) {
    std::fill(out.begin(), out.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
}

void DiskBackedStoreView::ReconstructCells(std::span<const CellRef> cells,
                                           std::span<double> out) const {
  if (!store_->ReconstructCells(cells, out).ok()) {
    std::fill(out.begin(), out.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
}

void DiskBackedStoreView::ReconstructRegion(
    std::span<const std::size_t> row_ids,
    std::span<const std::size_t> col_ids, Matrix* out) const {
  if (!store_->ReconstructRegion(row_ids, col_ids, out).ok()) {
    for (std::size_t r = 0; r < out->rows(); ++r) {
      const std::span<double> dst = out->Row(r);
      std::fill(dst.begin(), dst.end(),
                std::numeric_limits<double>::quiet_NaN());
    }
  }
}

std::uint64_t DiskBackedStoreView::CompressedBytes() const {
  // Section 3.4 accounting against the bytes actually served: the U row
  // store's true payload (quantized rows are smaller), k eigenvalues and
  // k*M of V in memory, plus the packed delta pairs.
  const std::uint64_t u_payload =
      static_cast<std::uint64_t>(store_->rows()) *
      store_->u_row_stride_bytes();
  const std::uint64_t resident =
      store_->k() + static_cast<std::uint64_t>(store_->k()) * store_->cols();
  return u_payload + resident * sizeof(double) +
         store_->deltas().PackedBytes();
}

}  // namespace tsc
