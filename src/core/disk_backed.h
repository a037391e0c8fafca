#ifndef TSC_CORE_DISK_BACKED_H_
#define TSC_CORE_DISK_BACKED_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/compressed_domain.h"
#include "core/compressed_store.h"
#include "core/row_block_sums.h"
#include "core/svdd_compressor.h"
#include "storage/cached_row_reader.h"
#include "storage/delta_index.h"
#include "storage/io_backend.h"
#include "storage/row_store.h"
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
/// "TSCROWS1" row store, so a row that fits in one block is one access.
///
/// Open also builds U's block sums (RowBlockSums) in one sequential pass
/// over the U file, outside the serving counters, so linear aggregates
/// read a run's U mass from memory plus at most 126 ragged end rows
/// through the cache: the same compressed domain the in-memory model
/// serves.
///
/// Thread safety: concurrent Reconstruct* and aggregate calls on one
/// store are safe under every I/O backend — the pread/mmap engines are
/// positional (no shared cursor), the stream engine serializes
/// internally, the block cache is sharded, and the access counters are
/// atomic.
class DiskBackedStore {
 public:
  /// Opens the pair of files produced by ExportSvddToDisk. The
  /// `cache_blocks` overload keeps the original signature; the options
  /// overload adds I/O backend selection.
  static StatusOr<DiskBackedStore> Open(const std::string& u_path,
                                        const std::string& sidecar_path,
                                        std::size_t cache_blocks = 0);
  static StatusOr<DiskBackedStore> Open(const std::string& u_path,
                                        const std::string& sidecar_path,
                                        const DiskBackedOptions& options);

  DiskBackedStore(DiskBackedStore&&) = default;
  DiskBackedStore& operator=(DiskBackedStore&&) = default;

  std::size_t rows() const {
    return cached_ ? cached_->rows() : u_reader_->rows();
  }
  std::size_t cols() const { return v_.rows(); }
  std::size_t k() const { return singular_values_.size(); }

  /// The I/O engine serving the U file.
  const char* io_backend_name() const {
    return cached_ ? cached_->reader().backend_name()
                   : u_reader_->backend_name();
  }

  /// Coefficient encoding of the U file (kF64 for the plain layout).
  /// Quantized rows are consumed in place by the fused kernels — cached
  /// blocks stay encoded, so the same block budget covers 2-8x more rows.
  QuantScheme u_scheme() const { return u_scheme_; }
  /// On-disk bytes of one U row (meta + padded codes when quantized).
  std::size_t u_row_stride_bytes() const { return u_row_stride_; }
  /// Total bytes of the U file (header + rows * stride) — the actual
  /// serving footprint of the on-disk factor.
  std::uint64_t u_file_bytes() const { return u_file_bytes_; }

  /// Reconstructs one cell; performs one U-row disk read plus O(k) work
  /// and one delta-index lookup.
  StatusOr<double> ReconstructCell(std::size_t row, std::size_t col);

  /// Reconstructs a whole row with the same single U-row read.
  Status ReconstructRow(std::size_t row, std::span<double> out);

  /// Batched point reconstruction: out[i] = cell cells[i]. Cells are
  /// grouped by row so each distinct U row is read once.
  Status ReconstructCells(std::span<const CellRef> cells,
                          std::span<double> out);

  /// Batched region reconstruction mirroring the in-memory models:
  /// reads the selected U rows once, then runs the blocked
  /// U * (Lambda V^T) product and folds the selected rows' deltas.
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids, Matrix* out);

  /// Disk accesses performed so far against the U file (cache misses
  /// when a buffer pool is configured).
  std::uint64_t disk_accesses() const {
    return cached_ ? cached_->disk_accesses()
                   : u_reader_->counter().accesses();
  }
  /// U-row block reads served from the buffer pool (0 when uncached);
  /// together with disk_accesses() this yields the serving hit rate.
  std::uint64_t cache_hits() const {
    return cached_ ? cached_->cache_hits() : 0;
  }
  bool has_cache() const { return cached_ != nullptr; }
  void ResetCounters() {
    if (cached_) {
      cached_->ResetStats();
    } else {
      u_reader_->counter().Reset();
    }
  }

  const DeltaIndex& deltas() const { return deltas_; }
  /// Row j is lambda (.) v_j.
  const Matrix& weighted_v() const { return weighted_v_; }

  /// Adds sum_{i in runs} u_i to out[0..k) (+=, caller zeroes): block
  /// sums from memory, the runs' ragged end rows read through the cache.
  /// Returns the k-vectors read, or the failed read's Status.
  StatusOr<std::uint64_t> AccumulateRowMass(std::span<const IdRange> runs,
                                            std::span<double> out);
  /// Appends dot(u_i, weights) for every i in `runs`, one U-row read
  /// each.
  Status AppendRowDots(std::span<const IdRange> runs,
                       std::span<const double> weights,
                       std::vector<double>* out);

 private:
  DiskBackedStore() = default;

  /// Fetches row `row` of U through the cache when configured, decoding
  /// quantized rows into doubles.
  Status ReadURow(std::size_t row, std::span<double> out);
  /// Fetches row `row` of U still encoded: zero-copy under mmap, into
  /// `scratch` (size >= u_row_stride_bytes()) otherwise. The fused
  /// dequantize kernels consume the view directly.
  StatusOr<QuantRowView> ReadUQuantRow(std::size_t row,
                                       std::span<std::uint8_t> scratch);
  /// fused-dot(u_row, weighted_v_col) + delta — Eq. 12 against a fetched
  /// (possibly still-quantized) row.
  double CellFromURow(const QuantRowView& urow, std::size_t row,
                      std::size_t col);

  // unique_ptr keeps the reader stable across moves. Exactly one of
  // u_reader_ / cached_ is set.
  std::unique_ptr<RowStoreReader> u_reader_;
  std::unique_ptr<CachedRowReader> cached_;
  std::vector<double> singular_values_;
  Matrix v_;
  Matrix weighted_v_;  ///< row j = lambda (.) v_j, derived at Open
  RowBlockSums u_sums_;  ///< built at Open from the U file
  DeltaIndex deltas_;
  QuantScheme u_scheme_ = QuantScheme::kF64;
  std::size_t u_row_stride_ = 0;
  std::uint64_t u_file_bytes_ = 0;
};

/// CompressedStore adapter over a DiskBackedStore, so the query executor
/// (and anything else programmed against the interface) can serve
/// straight from the two-file disk layout. It is also the store's
/// compressed domain, whose failed reads come back as a Status. Failed
/// reconstruction reads surface as NaN (that interface has no error
/// channel). `store` must outlive the view.
class DiskBackedStoreView final : public CompressedStore,
                                  public CompressedDomain {
 public:
  explicit DiskBackedStoreView(DiskBackedStore* store) : store_(store) {}

  std::size_t rows() const override { return store_->rows(); }
  std::size_t cols() const override { return store_->cols(); }

  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;
  void ReconstructCells(std::span<const CellRef> cells,
                        std::span<double> out) const override;
  void ReconstructRegion(std::span<const std::size_t> row_ids,
                         std::span<const std::size_t> col_ids,
                         Matrix* out) const override;
  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "svdd-disk"; }
  const CompressedDomain* compressed_domain() const override { return this; }

  std::size_t k() const override { return store_->k(); }
  const Matrix& weighted_v() const override { return store_->weighted_v(); }
  StatusOr<std::uint64_t> AccumulateRowMass(
      std::span<const IdRange> runs, std::span<double> out) const override {
    return store_->AccumulateRowMass(runs, out);
  }
  Status AppendRowDots(std::span<const IdRange> runs,
                       std::span<const double> weights,
                       std::vector<double>* out) const override {
    return store_->AppendRowDots(runs, weights, out);
  }
  /// The store's index never changes after Open: a non-owning handle.
  std::shared_ptr<const DeltaIndex> deltas() const override {
    return std::shared_ptr<const DeltaIndex>(std::shared_ptr<void>(),
                                             &store_->deltas());
  }

 private:
  DiskBackedStore* store_;
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
