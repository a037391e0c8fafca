#include "cube/rollup.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "linalg/kernels.h"

namespace tsc {

namespace {

/// Smallest power of two >= n (>= 1 so the root always exists).
std::size_t LeafBase(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(n, 1));
}

}  // namespace

std::shared_ptr<AggregateHierarchy> AggregateHierarchy::Build(
    const SvddModel& model) {
  std::shared_ptr<AggregateHierarchy> h(new AggregateHierarchy());
  h->model_ = &model;
  h->Populate(model);
  return h;
}

void AggregateHierarchy::Populate(const SvddModel& model) {
  const std::size_t rows = model.rows();
  cols_ = model.cols();
  k_ = model.k();
  row_leaf_base_ = LeafBase(rows);
  col_leaf_base_ = LeafBase(cols_);
  row_tree_ = Tensor({2 * row_leaf_base_, k_});
  col_tree_ = Tensor({2 * col_leaf_base_, k_});

  // Leaves are the (possibly quantization-snapped) U rows and the
  // Lambda-weighted V rows; internal nodes sum their children.
  const Matrix& u = model.svd().u();
  const Matrix& wv = model.svd().weighted_v();
  const auto fill = [k = k_](Tensor& tree, std::size_t leaf_base,
                             const Matrix& leaves, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::span<double> node = tree.Slice(leaf_base + i);
      std::span<const double> row = leaves.Row(i);
      std::copy(row.begin(), row.end(), node.begin());
    }
    for (std::size_t node = leaf_base; node-- > 1;) {
      std::span<double> out = tree.Slice(node);
      kernels::Axpy(1.0, tree.Slice(2 * node).data(), out.data(), k);
      kernels::Axpy(1.0, tree.Slice(2 * node + 1).data(), out.data(), k);
    }
  };
  fill(row_tree_, row_leaf_base_, u, rows);
  fill(col_tree_, col_leaf_base_, wv, cols_);
  rows_.store(rows, std::memory_order_release);
}

void AggregateHierarchy::EnsureFresh() const {
  if (!stale()) return;
  // A fold-in outran the tree span: the first reader re-derives the
  // trees from the grown model under the writer lock; racing readers
  // queue on the lock and then see the fresh state.
  auto* self = const_cast<AggregateHierarchy*>(this);
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!stale()) return;
  self->Populate(*model_);
}

std::uint64_t AggregateHierarchy::MemoryBytes() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return (row_tree_.size() + col_tree_.size()) * sizeof(double);
}

void AggregateHierarchy::AccumulateMass(const Tensor& tree,
                                        std::size_t leaf_base,
                                        std::span<const IdRange> ranges,
                                        std::span<double> out,
                                        RollupStats* stats) const {
  for (const IdRange& r : ranges) {
    std::size_t lo = leaf_base + r.lo;
    std::size_t hi = leaf_base + r.hi + 1;  // exclusive
    while (lo < hi) {
      if (lo & 1) {
        kernels::Axpy(1.0, tree.Slice(lo++).data(), out.data(), k_);
        if (stats != nullptr) ++stats->nodes_read;
      }
      if (hi & 1) {
        kernels::Axpy(1.0, tree.Slice(--hi).data(), out.data(), k_);
        if (stats != nullptr) ++stats->nodes_read;
      }
      lo >>= 1;
      hi >>= 1;
    }
  }
}

void AggregateHierarchy::AccumulateRowMass(std::span<const IdRange> row_ranges,
                                           std::span<double> out,
                                           RollupStats* stats) const {
  EnsureFresh();
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  AccumulateMass(row_tree_, row_leaf_base_, row_ranges, out, stats);
}

void AggregateHierarchy::AccumulateColMass(std::span<const IdRange> col_ranges,
                                           std::span<double> out,
                                           RollupStats* stats) const {
  EnsureFresh();
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  AccumulateMass(col_tree_, col_leaf_base_, col_ranges, out, stats);
}

double AggregateHierarchy::DeltaSum(std::span<const IdRange> row_ranges,
                                    std::span<const IdRange> col_ranges) const {
  return model_->deltas()->RegionSum(row_ranges, col_ranges);
}

double AggregateHierarchy::RegionSum(std::span<const IdRange> row_ranges,
                                     std::span<const IdRange> col_ranges,
                                     RollupStats* stats) const {
  EnsureFresh();
  std::vector<double> row_mass;
  std::vector<double> col_mass;
  {
    // One reader-lock hold for both tree reads (k_ and the trees may be
    // replaced by a concurrent rebuild).
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    row_mass.assign(k_, 0.0);
    col_mass.assign(k_, 0.0);
    AccumulateMass(row_tree_, row_leaf_base_, row_ranges, row_mass, stats);
    AccumulateMass(col_tree_, col_leaf_base_, col_ranges, col_mass, stats);
  }
  return kernels::Dot(row_mass.data(), col_mass.data(), row_mass.size()) +
         DeltaSum(row_ranges, col_ranges);
}

}  // namespace tsc
