#ifndef TSC_CORE_SVD_COMPRESSOR_H_
#define TSC_CORE_SVD_COMPRESSOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/compressed_store.h"
#include "core/row_block_sums.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "storage/cached_row_reader.h"
#include "storage/quant.h"
#include "storage/row_source.h"
#include "storage/serializer.h"
#include "util/id_range.h"
#include "util/logging.h"
#include "util/status.h"

namespace tsc {

class ThreadPool;

/// The exported U row store a model reads U from when U stays on disk
/// (DiskBackedStore): straight through `reader`, or through `cached`
/// when a buffer pool is configured. Exactly one is set; they are shared
/// so the disk layout can report their counters.
struct URowStore {
  std::shared_ptr<RowStoreReader> reader;
  std::shared_ptr<CachedRowReader> cached;

  const RowStoreReader& file() const {
    return cached ? cached->reader() : *reader;
  }
};

/// The "plain SVD" compressed representation of Section 3.4: the top-k
/// principal components. Holds U (N x k), the k singular values, and
/// V (M x k); a cell is reconstructed with Eq. 12 in O(k).
///
/// U's rows live in memory or, for a model over the exported row store
/// (OverRowStore), on disk. Every reconstruction and aggregate reads
/// them through one accessor, so the arithmetic is written once: an
/// in-memory row is a zero-copy f64 view, a stored row is consumed in
/// its stored encoding (fused dequantizing kernels for cells and rows,
/// decoded doubles for regions and row sums).
class SvdModel final : public CompressedStore {
 public:
  SvdModel() = default;
  SvdModel(Matrix u, std::vector<double> singular_values, Matrix v);

  /// A model whose U stays in `u_rows`: every U-row read goes through
  /// the row store (one read per row), so reconstructions and aggregates
  /// can fail with the read's Status. The block sums come from one
  /// sequential pass over the file, charged to no serving counter. The
  /// operations that need U in memory (u(), ProjectRow, FoldInRows,
  /// QuantizeToFloat, ApplyQuantization, Serialize) refuse such a model.
  static StatusOr<SvdModel> OverRowStore(URowStore u_rows,
                                         std::vector<double> singular_values,
                                         Matrix v);

  std::size_t rows() const override {
    return u_on_disk() ? u_rows_.file().rows() : u_.rows();
  }
  std::size_t cols() const override { return v_.rows(); }
  std::size_t k() const { return singular_values_.size(); }
  /// Whether U's rows are read from the row store rather than memory.
  bool u_on_disk() const { return u_rows_.reader || u_rows_.cached; }

  /// The plain forms abort on a failed U-row read; serving paths use the
  /// Status forms (TryReconstructCell, TryReconstructRow,
  /// ReconstructRegion). The Try forms return OUT_OF_RANGE for a bad id;
  /// the plain cell and ReconstructRegion require ids in range (checked
  /// in debug builds only; the planner's runs are in range), and on disk
  /// an out-of-range region row is still the reader's OUT_OF_RANGE.
  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;
  StatusOr<double> TryReconstructCell(std::size_t row, std::size_t col) const;
  Status TryReconstructRow(std::size_t row, std::span<double> out) const;
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override;

  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "svd"; }

  const Matrix& u() const {
    TSC_CHECK(!u_on_disk()) << "U of a model over the row store";
    return u_;
  }
  const std::vector<double>& singular_values() const {
    return singular_values_;
  }
  const Matrix& v() const { return v_; }

  /// The Lambda-weighted right factor: row j is lambda (.) v_j, so a cell
  /// is dot(u_i, weighted_v_j) — one multiply per component instead of
  /// two. Precomputed once per model (rebuilt on quantization); every
  /// reconstruction path reads it, it is never serialized.
  const Matrix& weighted_v() const { return weighted_v_; }

  /// Rows per U block and per superblock of the block sums.
  static constexpr std::size_t kRowBlock = RowBlockSums::kRowBlock;
  static constexpr std::size_t kRowSuperblock = RowBlockSums::kRowSuperblock;

  /// Adds sum_{i in runs} u_i to out[0..k) (+=, caller zeroes) from U's
  /// block sums (RowBlockSums::Accumulate; the ragged end rows are read
  /// through the U-row accessor). `runs` must be sorted, disjoint and
  /// within rows(). Returns the number of k-vectors read.
  StatusOr<std::uint64_t> AccumulateRowMass(std::span<const IdRange> runs,
                                            std::span<double> out) const;
  /// Appends dot(u_i, weights) to `out` for every i in `runs`, in order,
  /// one U-row read each.
  Status AppendRowDots(std::span<const IdRange> runs,
                       std::span<const double> weights,
                       std::vector<double>* out) const;

  /// Coordinates of sequence `row` in SVD space (Observation 3.4:
  /// the row of U x Lambda); the first 2-3 entries drive the Appendix A
  /// visualization.
  std::vector<double> ProjectRow(std::size_t row) const;

  /// Per-value bytes used in CompressedBytes() accounting (the paper's b).
  void set_bytes_per_value(std::size_t b) { bytes_per_value_ = b; }
  std::size_t bytes_per_value() const { return bytes_per_value_; }

  /// Statistics returned by FoldInRows: how much of the appended rows'
  /// energy the frozen subspace captured. A ratio near 1 means the new
  /// sequences follow the existing patterns; a low ratio means the
  /// subspace is stale and a rebuild is due.
  struct FoldInStats {
    std::size_t rows_added = 0;
    double energy_total = 0.0;     ///< sum of squared new-cell values
    double energy_captured = 0.0;  ///< energy of their rank-k projections

    double CaptureRatio() const {
      return energy_total > 0.0 ? energy_captured / energy_total : 1.0;
    }
  };

  /// Batched off-line appends (the paper's update model, Section 1):
  /// folds new raw sequences into the model using the frozen V and
  /// eigenvalues — the LSI "folding-in" technique. O(k*M) per row, no
  /// repass over existing data. V/Lambda are NOT refit; monitor
  /// CaptureRatio() and rebuild when it degrades.
  FoldInStats FoldInRows(const Matrix& new_rows);

  /// Makes the b=4 storage mode honest: rounds U, V and the eigenvalues
  /// through single precision and sets bytes_per_value to 4, so
  /// CompressedBytes() halves and the reported error includes the
  /// quantization loss.
  void QuantizeToFloat();

  /// Row-store quantization of the U factor: snaps every row of U to the
  /// values the quantized "TSCROWQ1" store will serve (decode of encode,
  /// per-row affine meta) and records the scheme, so the in-memory
  /// model, the delta selection and the exported file all agree.
  /// CompressedBytes() then charges U at its true quantized stride.
  /// kF64 is a no-op; V and the eigenvalues stay untouched (they are
  /// memory-resident and tiny next to U).
  void ApplyQuantization(QuantScheme scheme);

  /// The U coefficient encoding ExportSvddToDisk will write.
  QuantScheme quant_scheme() const { return quant_scheme_; }

  Status Serialize(BinaryWriter* writer) const;
  static StatusOr<SvdModel> Deserialize(BinaryReader* reader);
  /// Atomic: a failed save leaves any previous file at `path` as it was
  /// (WriteFileAtomically).
  Status SaveToFile(const std::string& path) const;
  static StatusOr<SvdModel> LoadFromFile(const std::string& path);

 private:
  /// Recomputes weighted_v_ from v_ and singular_values_; call after any
  /// mutation of the right factor (construction, quantization).
  void RebuildWeightedV();
  /// Recomputes the block sums from u_; call after any mutation of U
  /// (construction, quantization, fold-in).
  void RebuildBlockSums();

  /// Row i of U into `*row`: a zero-copy f64 view of u_ in memory; from
  /// the row store otherwise, in its stored encoding (in place under
  /// mmap, else in `scratch`, sized by URowScratch()). Inline, so the
  /// in-memory view costs no call.
  Status URow(std::size_t i, std::span<std::uint8_t> scratch,
              QuantRowView* row) const {
    if (!u_on_disk()) {
      *row = MemoryURow(i);
      return Status::Ok();
    }
    StatusOr<QuantRowView> read =
        u_rows_.cached ? u_rows_.cached->ReadQuantRow(i, scratch)
                       : u_rows_.reader->ReadQuantRow(i, scratch);
    if (!read.ok()) return read.status();
    *row = *read;
    return Status::Ok();
  }
  /// Row i of the in-memory U as an f64 view (requires !u_on_disk()).
  QuantRowView MemoryURow(std::size_t i) const {
    return QuantRowView{QuantScheme::kF64, u_.Row(i).data(), 1.0, 0.0,
                        u_.cols()};
  }
  /// Scratch for URow: one stored row on disk, empty in memory.
  std::vector<std::uint8_t> URowScratch() const;
  /// Calls fn(u_i) for i in [lo, hi), u_i as k doubles (in place for f64
  /// rows, decoded otherwise). Stops at the first failed read.
  template <typename Fn>
  Status ForEachDecodedURow(std::size_t lo, std::size_t hi, Fn&& fn) const;

  Matrix u_;  ///< empty when u_on_disk()
  URowStore u_rows_;
  std::vector<double> singular_values_;
  Matrix v_;
  /// Derived caches, never serialized nor charged in CompressedBytes.
  Matrix weighted_v_;
  RowBlockSums block_sums_;
  std::size_t bytes_per_value_ = 8;
  QuantScheme quant_scheme_ = QuantScheme::kF64;
};

/// Options for the streaming SVD build.
struct SvdBuildOptions {
  /// Number of principal components to retain (clipped to numerical rank).
  std::size_t k = 10;
  EigenSolverKind solver = EigenSolverKind::kHouseholderQl;
  /// The paper's b. 8 stores doubles; 4 quantizes the factors through
  /// single precision (QuantizeToFloat) so the accounting stays honest.
  std::size_t bytes_per_value = 8;
  /// Worker threads for the build passes (1 = serial). The passes shard
  /// their work by a fixed shard count and reduce in shard order, so any
  /// thread count produces a bitwise-identical model.
  std::size_t num_threads = 1;
};

/// Builds a plain-SVD model with the paper's 2-pass algorithm
/// (Section 4.1): pass 1 accumulates the M x M column-similarity matrix
/// C = X^T X (Figure 2) and eigendecomposes it in memory; pass 2 streams
/// the rows again to form U = X V Lambda^-1 (Figure 3, Eq. 11).
StatusOr<SvdModel> BuildSvdModel(RowSource* source,
                                 const SvdBuildOptions& options);

/// Pass 1 in isolation: accumulates C = X^T X in one scan. Exposed
/// because the SVDD build and the DataCube extension reuse it. Rows are
/// dealt to kBuildShards per-shard partial matrices (parallel over `pool`
/// when given) that are reduced in shard order, so the result does not
/// depend on the thread count.
StatusOr<Matrix> AccumulateColumnSimilarity(RowSource* source,
                                            ThreadPool* pool = nullptr);

/// One row of U at rank urow.size(): urow[p] = (row . v_p) / lambda_p,
/// with `proj` (at least urow.size() long) as scratch. The arithmetic
/// depends on the rank, so U at k is not bitwise a prefix of U at k' > k.
void EmitURow(std::span<const double> row, const Matrix& v,
              const std::vector<double>& singular_values,
              std::span<double> proj, std::span<double> urow);

/// The U-emission pass of the plain SVD build (Figure 3, Eq. 11; SVDD
/// pass 3 runs EmitURow inside its own scan): one more scan of `source`
/// computing u(i, p) = (x_i . v_p) / lambda_p for p < k. Rows of U are
/// independent, so the scan is row-parallel over `pool` with
/// bit-identical output for any thread count.
StatusOr<Matrix> EmitUMatrix(RowSource* source, const Matrix& v,
                             const std::vector<double>& singular_values,
                             std::size_t k, ThreadPool* pool = nullptr);

}  // namespace tsc

#endif  // TSC_CORE_SVD_COMPRESSOR_H_
