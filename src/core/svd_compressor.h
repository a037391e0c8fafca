#ifndef TSC_CORE_SVD_COMPRESSOR_H_
#define TSC_CORE_SVD_COMPRESSOR_H_

#include <cstdint>
#include <functional>
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

/// U's rows in the model file, for a model that reads U from there
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

/// Opens the row store over U's rows once their place in the model file
/// (a RowImage) is known.
using URowOpener = std::function<StatusOr<URowStore>(const RowImage&)>;

/// The "plain SVD" compressed representation of Section 3.4: the top-k
/// principal components. Holds U (N x k), the k singular values, and
/// V (M x k); a cell is reconstructed with Eq. 12 in O(k).
///
/// U's rows live in memory or, for a model over its file (Deserialize
/// with a URowOpener), on disk. Every reconstruction and aggregate reads
/// them through one accessor, so the arithmetic is written once over rows
/// of doubles: an in-memory row in place, a stored row as read (f64) or
/// decoded (quantized) to the in-memory model's bits.
class SvdModel final : public CompressedStore {
 public:
  SvdModel() = default;
  SvdModel(Matrix u, std::vector<double> singular_values, Matrix v);

  std::size_t rows() const override {
    return u_on_disk() ? u_rows_.file().rows() : u_.rows();
  }
  std::size_t cols() const override { return v_.rows(); }
  std::size_t k() const { return singular_values_.size(); }
  /// Whether U's rows are read from the model file rather than memory.
  bool u_on_disk() const { return u_rows_.reader || u_rows_.cached; }
  /// The row store U is read from (both pointers null in memory).
  const URowStore& u_rows() const { return u_rows_; }

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
  /// two. Precomputed once per model; every reconstruction path reads
  /// it, it is never serialized.
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
  /// U's block sums and per-block boxes (a derived cache, rebuilt with
  /// U; never serialized).
  const RowBlockSums& block_sums() const { return block_sums_; }
  /// Appends dot(u_i, weights) to `out` for every i in `runs`, in order,
  /// one U-row read each.
  Status AppendRowDots(std::span<const IdRange> runs,
                       std::span<const double> weights,
                       std::vector<double>* out) const;

  /// Coordinates of sequence `row` in SVD space (Observation 3.4:
  /// the row of U x Lambda); the first 2-3 entries drive the Appendix A
  /// visualization.
  std::vector<double> ProjectRow(std::size_t row) const;

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

  /// Row-store quantization of the U factor: snaps every row of U to the
  /// values its quantized "TSCROWQ1" row will serve (decode of encode,
  /// per-row affine meta, which the model keeps) and records the scheme,
  /// so the in-memory model, the delta selection and the model file all
  /// agree. CompressedBytes() then charges U at its true quantized
  /// stride. kF64 is a no-op; V and the eigenvalues stay untouched (they
  /// are memory-resident and tiny next to U).
  void ApplyQuantization(QuantScheme scheme);

  /// The U coefficient encoding of the build (what CompressedBytes
  /// charges).
  QuantScheme quant_scheme() const { return quant_scheme_; }
  /// The file layout (docs/file_formats.md): "SVD2" with U as TSCROWQ1
  /// rows once ApplyQuantization ran, else "SVD1" with U as f64 rows.
  Status Serialize(BinaryWriter* writer) const;
  /// Reads either layout. Without `open_u_rows` U is read into memory.
  /// With it, U stays in the file: `open_u_rows` opens the row store over
  /// U's rows, which are streamed once through `reader` (so its checksum
  /// covers them) to build the block sums, outside every serving counter.
  /// Every later U-row read of such a model goes through the row store
  /// (one read per row), so reconstructions and aggregates can fail with
  /// the read's Status; the operations that need U in memory (u(),
  /// ProjectRow, FoldInRows, ApplyQuantization, Serialize) refuse
  /// it.
  static StatusOr<SvdModel> Deserialize(BinaryReader* reader,
                                        const URowOpener& open_u_rows = {});
  /// Atomic: a failed save leaves any previous file at `path` as it was
  /// (WriteFileAtomically).
  Status SaveToFile(const std::string& path) const;
  static StatusOr<SvdModel> LoadFromFile(const std::string& path);

 private:
  /// Recomputes weighted_v_ from v_ and singular_values_; call once the
  /// right factor is set (construction, load).
  void RebuildWeightedV();
  /// Recomputes the block sums and boxes from u_; call after any
  /// mutation of U (construction, quantization, fold-in).
  void RebuildBlockSums();

  /// Buffers for URow: one stored row and its decoded doubles on disk,
  /// empty in memory.
  struct URowScratch {
    std::vector<std::uint8_t> stored;
    std::vector<double> decoded;
  };
  URowScratch NewURowScratch() const;
  /// Row i of U as k doubles into `*row`: u_'s own row in memory;
  /// otherwise read from the row store into `scratch` and, if quantized,
  /// decoded to the very doubles an in-memory model holds, so both modes
  /// run the same f64 kernels and agree bit for bit. Inline, so the
  /// in-memory row costs no call.
  Status URow(std::size_t i, URowScratch* scratch, const double** row) const {
    if (!u_on_disk()) {
      *row = u_.Row(i).data();
      return Status::Ok();
    }
    return ReadStoredURow(i, scratch, row);
  }
  Status ReadStoredURow(std::size_t i, URowScratch* scratch,
                        const double** row) const;
  /// Calls fn(u_i) for i in [lo, hi), u_i as k doubles (URow). Stops at
  /// the first failed read.
  template <typename Fn>
  Status ForEachURow(std::size_t lo, std::size_t hi, Fn&& fn) const;

  Matrix u_;  ///< empty when u_on_disk()
  URowStore u_rows_;
  std::vector<double> singular_values_;
  Matrix v_;
  /// Derived caches, never serialized nor charged in CompressedBytes.
  Matrix weighted_v_;
  RowBlockSums block_sums_;
  QuantScheme quant_scheme_ = QuantScheme::kF64;
  /// The encoding of U's rows in the model file: quant_scheme_ once
  /// ApplyQuantization ran, kF64 for f64 models and for quantized files
  /// written before U was stored as codes (their snapped doubles).
  QuantScheme u_row_scheme_ = QuantScheme::kF64;
  /// The affine meta of each U row under an integer u_row_scheme_ (the
  /// one its snap used, so the file's codes decode to u_ bit for bit);
  /// empty otherwise.
  std::vector<QuantRowMeta> u_meta_;
};

/// Options for the streaming SVD build.
struct SvdBuildOptions {
  /// Number of principal components to retain (clipped to numerical rank).
  std::size_t k = 10;
  EigenSolverKind solver = EigenSolverKind::kHouseholderQl;
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
