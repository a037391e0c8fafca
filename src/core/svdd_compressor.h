#ifndef TSC_CORE_SVDD_COMPRESSOR_H_
#define TSC_CORE_SVDD_COMPRESSOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compressed_store.h"
#include "core/space_budget.h"
#include "core/svd_compressor.h"
#include "storage/delta_index.h"
#include "storage/row_source.h"
#include "util/status.h"

namespace tsc {

/// Pass-1 subspace engine selector (see BuildSvddModel).
enum class SvddBuildEngine {
  /// Exact: full M x M column-similarity accumulation + dense
  /// eigensolve. The paper's algorithm; O(N * M^2) pass 1.
  kExact,
  /// Randomized: streaming Gaussian-sketch range finder
  /// (core/randomized_build.h). O(N * M * (k+p)) pass 1 with resident
  /// state independent of N; eigenvalues are Rayleigh-Ritz estimates.
  kRandomized,
};

/// The SVDD ("SVD with Deltas") representation of Section 4.2: a truncated
/// SVD plus the (cell, delta) pairs of the worst-reconstructed cells,
/// held in one DeltaIndex (storage/delta_index.h) that every fold reads:
/// cell, row, cell batch, region, and the aggregates' range sums.
///
/// Thread safety: reads may run concurrently with PatchCell. A patch
/// publishes a new index snapshot by atomic swap; each read loads one
/// snapshot and answers from it alone. FoldInRows is an offline batch
/// operation and must not race anything.
///
/// The model is the compressed domain linear aggregates read (DESIGN.md
/// §14), whether U's rows are in memory or read from the model file
/// (DiskBackedStore): its k,
/// weighted_v, AccumulateRowMass, AppendRowDots and delta snapshot.
class SvddModel final : public CompressedStore {
 public:
  SvddModel() = default;
  SvddModel(SvdModel svd, DeltaIndex deltas);

  std::size_t rows() const override { return svd_.rows(); }
  std::size_t cols() const override { return svd_.cols(); }
  std::size_t k() const { return svd_.k(); }
  std::size_t delta_count() const { return deltas()->size(); }

  /// As in SvdModel: the plain forms abort on a failed U-row read, the
  /// Status forms (and ReconstructRegion) return it.
  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;
  StatusOr<double> TryReconstructCell(std::size_t row, std::size_t col) const;
  Status TryReconstructRow(std::size_t row, std::span<double> out) const;
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override;

  /// SVD footprint plus packed delta pairs. The index's row CSR and
  /// column-sum checkpoints are main-memory acceleration structures,
  /// reported by DeltaIndex::RowIndexBytes/CheckpointBytes and not
  /// charged here.
  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "svdd"; }
  const SvddModel* compressed_domain() const override { return this; }

  const SvdModel& svd() const { return svd_; }
  /// The current delta snapshot; it stays valid (and unchanged) for as
  /// long as the caller holds it.
  std::shared_ptr<const DeltaIndex> deltas() const { return deltas_.Load(); }

  const Matrix& weighted_v() const { return svd_.weighted_v(); }
  StatusOr<std::uint64_t> AccumulateRowMass(std::span<const IdRange> runs,
                                            std::span<double> out) const {
    return svd_.AccumulateRowMass(runs, out);
  }
  Status AppendRowDots(std::span<const IdRange> runs,
                       std::span<const double> weights,
                       std::vector<double>* out) const {
    return svd_.AppendRowDots(runs, weights, out);
  }

  /// Batched off-line appends: folds new sequences in via the frozen
  /// subspace (see SvdModel::FoldInRows). New rows get no deltas; patch
  /// their worst cells with PatchCell if needed. The U block sums are
  /// rebuilt before it returns.
  SvdModel::FoldInStats FoldInRows(const Matrix& new_rows);

  /// Point update: makes cell (row, col) reconstruct exactly
  /// `exact_value` by storing (or replacing) its delta. This is how rare
  /// off-line corrections are applied without rebuilding; each patch
  /// costs one delta entry of space.
  Status PatchCell(std::size_t row, std::size_t col, double exact_value);

  Status Serialize(BinaryWriter* writer) const;
  /// U in memory, or left in the file with `open_u_rows`
  /// (SvdModel::Deserialize).
  static StatusOr<SvddModel> Deserialize(BinaryReader* reader,
                                         const URowOpener& open_u_rows = {});
  /// Atomic: a failed save leaves any previous file at `path` as it was
  /// (WriteFileAtomically).
  Status SaveToFile(const std::string& path) const;
  static StatusOr<SvddModel> LoadFromFile(const std::string& path);

 private:
  SvdModel svd_;
  PublishedDeltaIndex deltas_;
};

/// Options for the 3-pass SVDD build.
struct SvddBuildOptions {
  /// Space allowance as a percent of the uncompressed matrix (the s% knob
  /// every experiment sweeps).
  double space_percent = 10.0;
  /// Bytes per outlier the space budget reserves. The model stores, and
  /// is charged, DeltaIndex::kPackedEntryBytes per delta; a larger value
  /// (the naive-triplet ablation) only buys fewer deltas.
  std::uint64_t delta_bytes = kDefaultDeltaBytes;
  /// Coefficient encoding of the U row store (storage/quant.h). A
  /// quantized scheme shrinks the on-disk U 2-8x; the freed budget buys
  /// a larger k and more deltas, and passes 2 and 3 measure per-cell
  /// error against the QUANTIZED reconstruction so the outliers are the
  /// cells worst hit by truncation plus quantization combined.
  QuantScheme quant = QuantScheme::kF64;
  /// Force a specific k instead of optimizing (ablation hook); 0 = choose
  /// k_opt by the paper's algorithm.
  std::size_t forced_k = 0;
  /// Cap on the number of candidate k values evaluated in pass 2 (the
  /// k_opt search ablation): evenly spaced in 1..k_max, both ends
  /// included. The paper evaluates every k, which is also the default
  /// (0).
  std::size_t max_candidates = 0;
  EigenSolverKind solver = EigenSolverKind::kHouseholderQl;
  /// Worker threads for the three build passes (1 = serial). Work is
  /// sharded by a fixed shard count with ordered reductions and a
  /// total-order outlier selection, so any thread count produces a
  /// bitwise-identical model.
  std::size_t num_threads = 1;
  /// Pass-1 subspace engine. kExact reproduces the paper; kRandomized
  /// swaps pass 1 for the streaming sketch PCA, leaving passes 2/3, the
  /// k_opt search and quantized-byte charging unchanged.
  SvddBuildEngine engine = SvddBuildEngine::kExact;
  /// Randomized engine only: Gaussian sketch seed. Builds are
  /// bit-identical for a fixed seed at any thread count.
  std::uint64_t sketch_seed = 42;
  /// Randomized engine only: oversampling columns p beyond k_max.
  std::size_t sketch_oversample = 8;
  /// Randomized engine only: extra power-iteration passes (one more
  /// stream over the rows each) for slowly decaying spectra.
  std::size_t power_iterations = 0;
};

/// Build-time report: the k trade-off the algorithm explored.
struct SvddBuildDiagnostics {
  std::size_t k_max = 0;
  std::size_t k_opt = 0;
  std::uint64_t delta_count = 0;
  /// Candidate cut-offs evaluated (ascending).
  std::vector<std::size_t> candidate_ks;
  /// Total squared reconstruction error of plain SVD at each candidate.
  std::vector<double> candidate_sse;
  /// Squared error remaining after crediting the affordable deltas
  /// (epsilon_k of Figure 5); k_opt minimizes this. Exact for the
  /// candidates pass 3 resolved; for the rest, the lower bound of the
  /// bracket pass 2 put epsilon_k in, which already exceeds k_opt's.
  std::vector<double> candidate_residual_sse;
  /// Affordable outlier count at each candidate.
  std::vector<std::uint64_t> candidate_delta_counts;
  /// Engine that produced the subspace: "exact" or "randomized".
  std::string engine;
  /// Randomized engine: sketch width l = k_max_target + oversample (0
  /// for exact builds).
  std::size_t sketch_cols = 0;
  /// Randomized engine: power iterations run.
  std::size_t power_iterations = 0;
  /// Data rows read across all streaming passes of the build.
  std::uint64_t rows_streamed = 0;
  /// Candidates whose epsilon_k bracket overlapped the best one, so pass
  /// 3 resolved them exactly (and emitted their U); usually 1.
  std::size_t resolved_candidates = 0;
  /// Per candidate: was its epsilon_k resolved exactly?
  std::vector<bool> candidate_resolved;
  /// Bytes pass 2 held to rank outliers: one error histogram per (shard,
  /// candidate), a function of the candidate count alone — independent
  /// of N and of the allowances gamma_k.
  std::uint64_t pass2_outlier_state_bytes = 0;
  /// Wall seconds of each pass: [0] the subspace estimate (all of its
  /// streams and the eigensolve), [1] pass 2 with the brackets, [2] pass
  /// 3 with the exact resolution and the model assembly.
  std::array<double, 3> pass_seconds{};
  /// Resident set size of the process at the end of each pass, MiB.
  std::array<double, 3> pass_end_rss_mb{};
  /// The process's peak resident set size when the build returned, MiB.
  double peak_rss_mb = 0.0;
};

/// Builds an SVDD model with the paper's 3-pass algorithm (Figure 5):
///   pass 1  accumulate C = X^T X, eigendecompose, fix k_max and the
///           per-candidate outlier allowances gamma_k;
///   pass 2  stream rows, accumulate each candidate's SSE_k and a
///           histogram of its largest cell errors, which puts each
///           epsilon_k in a bracket;
///   pass 3  stream rows once more to emit U and, for the candidates
///           whose bracket overlaps the best one, collect the gamma_k
///           largest errors exactly; pick k_opt among them.
/// The delta index is built from k_opt's collected cells.
StatusOr<SvddModel> BuildSvddModel(RowSource* source,
                                   const SvddBuildOptions& options,
                                   SvddBuildDiagnostics* diagnostics = nullptr);

}  // namespace tsc

#endif  // TSC_CORE_SVDD_COMPRESSOR_H_
