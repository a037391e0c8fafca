#ifndef TSC_CORE_DISK_BACKED_H_
#define TSC_CORE_DISK_BACKED_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/compressed_store.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "util/status.h"

namespace tsc {

/// Serving-time knobs for DiskBackedStore::Open.
struct DiskBackedOptions {
  /// > 0 routes U-row reads through a BlockCache buffer pool of that
  /// many blocks (the Appendix A skewed-workload serving mode).
  std::size_t cache_blocks = 0;
};

/// The paper's deployment layout made concrete: V and the eigenvalues
/// pinned in memory, U read row-wise from the model file, the deltas in
/// memory in a DeltaIndex. Reconstructing cell (i, j) then costs exactly
/// one disk access — the read of row i of U — which the embedded
/// DiskAccessCounter proves.
///
/// The model file is the serving file: its U section holds TSCROWS1 rows
/// (f64) or TSCROWQ1 rows (quantized), so a row that fits in one block is
/// one access. Open reads everything but U into an SvddModel over the
/// file (SvddModel::Deserialize with a URowOpener), which serves every
/// reconstruction and aggregate with the in-memory model's code; its U
/// block sums come from the same sequential pass that verifies the
/// file's checksum, outside the serving counters. The store itself only
/// adds the storage counters.
///
/// Thread safety: concurrent reads of one store are safe — every U-row
/// read is positional (no shared cursor), the block cache is sharded,
/// and the access counters are atomic. A read that fails (a file cut
/// short under the store) comes back as an IoError.
class DiskBackedStore {
 public:
  /// Opens an SVDD model file in either layout (docs/file_formats.md).
  /// Writes nothing.
  static StatusOr<DiskBackedStore> Open(const std::string& model_path,
                                        const DiskBackedOptions& options = {});
  /// perfbench shim, kept until a benchmark PR stops naming it: the
  /// second path is ignored and the one-file Open serves `model_path`.
  static StatusOr<DiskBackedStore> Open(const std::string& model_path,
                                        const std::string& /*unused*/,
                                        const DiskBackedOptions& options) {
    return Open(model_path, options);
  }

  DiskBackedStore(DiskBackedStore&&) = default;
  DiskBackedStore& operator=(DiskBackedStore&&) = default;

  /// The model over the file. Pointers to it (executors, servers) stay
  /// valid while the store is neither moved nor destroyed.
  const SvddModel& model() const { return model_; }

  /// One cell, one U-row read: the model's TryReconstructCell.
  StatusOr<double> ReconstructCell(std::size_t row, std::size_t col) const {
    return model_.TryReconstructCell(row, col);
  }

  /// Coefficient encoding of U's rows in the file (kF64 for the f64
  /// layout). Quantized rows are consumed in place by the fused kernels —
  /// cached blocks stay encoded, so the same block budget covers 2-8x
  /// more rows.
  QuantScheme u_scheme() const { return u_file().scheme(); }
  /// On-disk bytes of one U row (meta + padded codes when quantized).
  std::size_t u_row_stride_bytes() const {
    return u_file().row_stride_bytes();
  }
  /// Bytes of U's rows in the file (rows * stride) — the serving
  /// footprint of the on-disk factor.
  std::uint64_t u_bytes() const {
    return u_file().file_bytes() - u_file().header_bytes();
  }

  /// Disk accesses performed so far against U's rows (cache misses when
  /// a buffer pool is configured).
  std::uint64_t disk_accesses() const {
    return u_rows().cached ? u_rows().cached->disk_accesses()
                           : u_rows().reader->counter().accesses();
  }
  /// U-row block reads served from the buffer pool (0 when uncached);
  /// together with disk_accesses() this yields the serving hit rate.
  std::uint64_t cache_hits() const {
    return u_rows().cached ? u_rows().cached->cache_hits() : 0;
  }
  void ResetCounters() {
    if (u_rows().cached) {
      u_rows().cached->ResetStats();
    } else {
      u_rows().reader->counter().Reset();
    }
  }

 private:
  explicit DiskBackedStore(SvddModel model) : model_(std::move(model)) {}

  const URowStore& u_rows() const { return model_.svd().u_rows(); }
  const RowStoreReader& u_file() const { return u_rows().file(); }

  SvddModel model_;
};

/// A CompressedStore over a DiskBackedStore's model that forwards every
/// call, kept until a benchmark PR stops perfbench naming it; serve
/// DiskBackedStore::model() instead. `store` must outlive the view.
class DiskBackedStoreView final : public CompressedStore {
 public:
  explicit DiskBackedStoreView(DiskBackedStore* store)
      : model_(&store->model()) {}

  std::size_t rows() const override { return model_->rows(); }
  std::size_t cols() const override { return model_->cols(); }
  double ReconstructCell(std::size_t row, std::size_t col) const override {
    return model_->ReconstructCell(row, col);
  }
  void ReconstructRow(std::size_t row, std::span<double> out) const override {
    model_->ReconstructRow(row, out);
  }
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override {
    return model_->ReconstructRegion(row_ids, col_ids, out);
  }
  std::uint64_t CompressedBytes() const override {
    return model_->CompressedBytes();
  }
  std::string MethodName() const override { return "svdd-disk"; }
  const SvddModel* compressed_domain() const override { return model_; }

 private:
  const SvddModel* model_;
};

/// perfbench shim, kept until a benchmark PR stops naming it: the model
/// file is the disk layout, so this saves `model` to `path` and writes
/// nothing at the second path.
inline Status ExportSvddToDisk(const SvddModel& model, const std::string& path,
                               const std::string& /*unused*/) {
  return model.SaveToFile(path);
}

}  // namespace tsc

#endif  // TSC_CORE_DISK_BACKED_H_
