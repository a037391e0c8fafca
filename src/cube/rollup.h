#ifndef TSC_CUBE_ROLLUP_H_
#define TSC_CUBE_ROLLUP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/svdd_compressor.h"
#include "cube/tensor.h"
#include "util/id_range.h"

namespace tsc {

/// Per-query hierarchy work accounting, surfaced as `agg.nodes_read`
/// and the X-Query-Cost `agg_nodes_read` field.
struct RollupStats {
  std::uint64_t nodes_read = 0;  ///< segment-tree nodes consumed
};

/// The multi-resolution aggregate hierarchy over the compressed domain:
/// two power-of-two segment trees whose node payloads live in cube
/// Tensors, plus the model's DeltaIndex for the delta side. It answers
/// linear aggregates (sum/avg/count) over any (row ranges x column
/// ranges) from O(k log N + k log M) node reads and O(|C| log gamma)
/// delta-index searches, with no row reconstruction.
///
///   row tree   node = sum of its rows' U coefficients (a k-vector)
///   col tree   node = sum of its columns' Lambda-weighted V rows
///   deltas     the model's current DeltaIndex snapshot, read per query
///              (its column-major running sums)
///
/// The factor trees are immutable between fold-ins. The delta side
/// needs no maintenance: a PatchCell publishes a new index snapshot and
/// the next query reads it. FoldInRows grows the model past the trees;
/// the next read sees the row count change and rebuilds them under the
/// writer lock, while queries take the reader side.
///
/// Region sum identity (exact up to fp reassociation):
///   sum_{i in R, j in C} X-hat(i,j)
///     = dot(sum_{i in R} u_i, sum_{j in C} lambda.v_j)
///       + sum_{(i,j) in R x C} delta(i,j)
class AggregateHierarchy {
 public:
  /// Builds the two trees from the model's factors. The model must
  /// outlive the hierarchy and not move (the same contract the
  /// QueryExecutor already imposes).
  static std::shared_ptr<AggregateHierarchy> Build(const SvddModel& model);

  std::size_t rows() const { return rows_.load(std::memory_order_acquire); }
  std::size_t cols() const { return cols_; }
  std::size_t k() const { return k_; }
  /// Bytes of the factor trees (the delta index is the model's).
  std::uint64_t MemoryBytes() const;

  /// Accumulates sum_{i in ranges} u_i into out[0..k) (+=, caller
  /// zeroes). O(k log N) — one Axpy per consumed node.
  void AccumulateRowMass(std::span<const IdRange> row_ranges,
                         std::span<double> out, RollupStats* stats) const;
  /// Accumulates sum_{j in ranges} lambda.v_j into out[0..k).
  void AccumulateColMass(std::span<const IdRange> col_ranges,
                         std::span<double> out, RollupStats* stats) const;

  /// Sum of stored deltas inside the region, from the delta index's
  /// column running sums.
  double DeltaSum(std::span<const IdRange> row_ranges,
                  std::span<const IdRange> col_ranges) const;

  /// The headline query: sum over the region, deltas folded.
  double RegionSum(std::span<const IdRange> row_ranges,
                   std::span<const IdRange> col_ranges,
                   RollupStats* stats) const;

  /// Whether a fold-in is pending a rebuild (test/diagnostic hook).
  bool stale() const {
    return model_->rows() != rows();
  }

 private:
  AggregateHierarchy() = default;

  /// (Re)derives both trees from the model's current factors. Called at
  /// Build, and from EnsureFresh under the writer lock after a fold-in.
  /// The caller synchronizes.
  void Populate(const SvddModel& model);

  /// Lazy rebuild gate, called at the top of every read: cheap acquire
  /// load when fresh; after a fold-in, the first reader re-Populates
  /// under the writer lock while later readers queue on it.
  void EnsureFresh() const;

  /// Shared canonical-decomposition walk over a {2P, k} factor tree.
  void AccumulateMass(const Tensor& tree, std::size_t leaf_base,
                      std::span<const IdRange> ranges, std::span<double> out,
                      RollupStats* stats) const;

  /// The indexed model; outlives the hierarchy (Build's contract).
  /// Read again on stale rebuilds.
  const SvddModel* model_ = nullptr;
  /// The model row count the trees were built for.
  std::atomic<std::size_t> rows_{0};
  std::size_t cols_ = 0;
  std::size_t k_ = 0;

  std::size_t row_leaf_base_ = 1;  ///< P for the row tree
  std::size_t col_leaf_base_ = 1;  ///< P for the col tree
  Tensor row_tree_;                ///< {2P_rows, k} sums of U rows
  Tensor col_tree_;                ///< {2P_cols, k} sums of Lambda·V rows

  /// Lazy rebuilds replace the trees, so every tree read takes the
  /// reader side and a rebuild the writer side.
  mutable std::shared_mutex mutex_;
};

}  // namespace tsc

#endif  // TSC_CUBE_ROLLUP_H_
