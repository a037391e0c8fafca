#ifndef TSC_CORE_DISK_BACKED_H_
#define TSC_CORE_DISK_BACKED_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/compressed_store.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "storage/io_backend.h"
#include "util/status.h"

namespace tsc {

/// Serving-time knobs for DiskBackedStore::Open.
struct DiskBackedOptions {
  /// > 0 routes U-row reads through a BlockCache buffer pool of that
  /// many blocks (the Appendix A skewed-workload serving mode).
  std::size_t cache_blocks = 0;
  /// I/O engine for the U file; defaults to the TSC_IO-resolved backend
  /// (mmap where available).
  std::optional<IoBackendKind> io_backend;
};

/// The paper's deployment layout made concrete: V and the eigenvalues
/// pinned in memory, U stored row-wise on disk, the deltas in memory in
/// a DeltaIndex. Reconstructing cell (i, j) then costs exactly one disk
/// access — the read of row i of U — which the embedded
/// DiskAccessCounter proves.
///
/// Build with ExportSvddToDisk() + Open(); the exported U file is the
/// "TSCROWS1"/"TSCROWQ1" row store, so a row that fits in one block is
/// one access. Open loads the sidecar into an SvddModel over the U file
/// (SvdModel::OverRowStore), which serves every reconstruction and
/// aggregate with the in-memory model's code; its U block sums come from
/// one sequential pass over the file, outside the serving counters. The
/// store itself only adds the storage counters.
///
/// Thread safety: concurrent reads of one store are safe under every
/// I/O backend — the pread/mmap engines are positional (no shared
/// cursor), the stream engine serializes internally, the block cache is
/// sharded, and the access counters are atomic.
class DiskBackedStore {
 public:
  /// Opens the pair of files produced by ExportSvddToDisk.
  static StatusOr<DiskBackedStore> Open(const std::string& u_path,
                                        const std::string& sidecar_path,
                                        const DiskBackedOptions& options = {});

  DiskBackedStore(DiskBackedStore&&) = default;
  DiskBackedStore& operator=(DiskBackedStore&&) = default;

  /// The model over the U file. Pointers to it (executors, servers) stay
  /// valid while the store is neither moved nor destroyed.
  const SvddModel& model() const { return model_; }

  /// One cell, one U-row read: the model's TryReconstructCell.
  StatusOr<double> ReconstructCell(std::size_t row, std::size_t col) const {
    return model_.TryReconstructCell(row, col);
  }

  /// The I/O engine serving the U file.
  const char* io_backend_name() const {
    return u_rows_.file().backend_name();
  }
  /// Coefficient encoding of the U file (kF64 for the plain layout).
  /// Quantized rows are consumed in place by the fused kernels — cached
  /// blocks stay encoded, so the same block budget covers 2-8x more rows.
  QuantScheme u_scheme() const { return u_rows_.file().scheme(); }
  /// On-disk bytes of one U row (meta + padded codes when quantized).
  std::size_t u_row_stride_bytes() const {
    return u_rows_.file().row_stride_bytes();
  }
  /// Total bytes of the U file (header + rows * stride) — the actual
  /// serving footprint of the on-disk factor.
  std::uint64_t u_file_bytes() const { return u_rows_.file().file_bytes(); }

  /// Disk accesses performed so far against the U file (cache misses
  /// when a buffer pool is configured).
  std::uint64_t disk_accesses() const {
    return u_rows_.cached ? u_rows_.cached->disk_accesses()
                          : u_rows_.reader->counter().accesses();
  }
  /// U-row block reads served from the buffer pool (0 when uncached);
  /// together with disk_accesses() this yields the serving hit rate.
  std::uint64_t cache_hits() const {
    return u_rows_.cached ? u_rows_.cached->cache_hits() : 0;
  }
  void ResetCounters() {
    if (u_rows_.cached) {
      u_rows_.cached->ResetStats();
    } else {
      u_rows_.reader->counter().Reset();
    }
  }

 private:
  DiskBackedStore(URowStore u_rows, SvddModel model)
      : u_rows_(std::move(u_rows)), model_(std::move(model)) {}

  URowStore u_rows_;  ///< shared with model_, for the counters
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

/// Writes `model` into the two-file disk layout: `u_path` holds U as a
/// row store (one row per sequence), `sidecar_path` holds the memory-
/// resident parts (eigenvalues, V, deltas). Both files are written to
/// temp files, fsync'ed and renamed into place (the sidecar first), so a
/// failed export leaves any previous pair as it was.
Status ExportSvddToDisk(const SvddModel& model, const std::string& u_path,
                        const std::string& sidecar_path);

}  // namespace tsc

#endif  // TSC_CORE_DISK_BACKED_H_
