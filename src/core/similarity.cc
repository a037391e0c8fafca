#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "util/bounded_heap.h"
#include "util/logging.h"

namespace tsc {
namespace {

/// Per-component weights w_m = lambda_m * sum_{j in S} v_jm; the
/// compressed-domain column-range sum of row i is then dot(u_i, w).
std::vector<double> ColumnRangeWeights(const SvdModel& model,
                                       const std::vector<std::size_t>& cols) {
  std::vector<double> weights(model.k(), 0.0);
  for (std::size_t m = 0; m < model.k(); ++m) {
    double vsum = 0.0;
    for (const std::size_t j : cols) {
      TSC_DCHECK(j < model.cols());
      vsum += model.v()(j, m);
    }
    weights[m] = model.singular_values()[m] * vsum;
  }
  return weights;
}

std::vector<ScoredRow> TopByScore(std::vector<double> scores,
                                  std::size_t count) {
  BoundedTopHeap<double, std::size_t> heap(count);
  for (std::size_t i = 0; i < scores.size(); ++i) heap.Offer(scores[i], i);
  std::vector<ScoredRow> out;
  for (const auto& entry : heap.TakeSortedDescending()) {
    out.push_back(ScoredRow{entry.value, entry.key});
  }
  return out;
}

}  // namespace

std::vector<ScoredRow> TopRowsBySum(const SvdModel& model,
                                    const std::vector<std::size_t>& col_ids,
                                    std::size_t count) {
  const std::vector<double> weights = ColumnRangeWeights(model, col_ids);
  std::vector<double> scores(model.rows(), 0.0);
  for (std::size_t i = 0; i < model.rows(); ++i) {
    const std::span<const double> urow = model.u().Row(i);
    double total = 0.0;
    for (std::size_t m = 0; m < model.k(); ++m) total += urow[m] * weights[m];
    scores[i] = total;
  }
  return TopByScore(std::move(scores), count);
}

std::vector<ScoredRow> TopRowsBySum(const SvddModel& model,
                                    const std::vector<std::size_t>& col_ids,
                                    std::size_t count) {
  const std::vector<double> weights =
      ColumnRangeWeights(model.svd(), col_ids);
  std::vector<double> scores(model.rows(), 0.0);
  for (std::size_t i = 0; i < model.rows(); ++i) {
    const std::span<const double> urow = model.svd().u().Row(i);
    double total = 0.0;
    for (std::size_t m = 0; m < model.k(); ++m) total += urow[m] * weights[m];
    scores[i] = total;
  }
  // Fold in the deltas: each stored outlier shifts exactly one cell of
  // one row; a column-set bitmap makes the membership test O(1).
  std::vector<bool> in_set(model.cols(), false);
  for (const std::size_t j : col_ids) in_set[j] = true;
  model.deltas()->ForEach([&](std::size_t i, std::size_t j, double delta) {
    if (in_set[j]) scores[i] += delta;
  });
  return TopByScore(std::move(scores), count);
}

StatusOr<NeighborSearchResult> NearestRows(const SvdModel& model,
                                           std::span<const double> query,
                                           std::size_t count) {
  if (query.size() != model.cols()) {
    return Status::InvalidArgument("query length != M");
  }
  // Project the query: q_m = <query, v_m>. (For a row of the original
  // matrix this reproduces its U * Lambda coordinates.)
  std::vector<double> projected(model.k(), 0.0);
  for (std::size_t m = 0; m < model.k(); ++m) {
    double dot = 0.0;
    for (std::size_t j = 0; j < model.cols(); ++j) {
      dot += query[j] * model.v()(j, m);
    }
    projected[m] = dot;
  }
  // Scan U; keep the `count` smallest projected distances. The bounded
  // heap keeps largest keys, so negate.
  BoundedTopHeap<double, std::size_t> heap(count);
  for (std::size_t i = 0; i < model.rows(); ++i) {
    const std::span<const double> urow = model.u().Row(i);
    double dist2 = 0.0;
    for (std::size_t m = 0; m < model.k(); ++m) {
      const double coord = urow[m] * model.singular_values()[m];
      const double d = coord - projected[m];
      dist2 += d * d;
    }
    heap.Offer(-dist2, i);
  }
  NeighborSearchResult result;
  auto entries = heap.TakeSortedDescending();
  for (const auto& entry : entries) {
    result.neighbors.push_back(ScoredRow{entry.value, std::sqrt(-entry.key)});
  }
  return result;
}

StatusOr<NeighborSearchResult> NearestRowsTo(const SvdModel& model,
                                             std::size_t row,
                                             std::size_t count) {
  if (row >= model.rows()) return Status::OutOfRange("row out of range");
  // Reuse the projected coordinates of the stored row directly.
  const std::vector<double> anchor = model.ProjectRow(row);
  BoundedTopHeap<double, std::size_t> heap(count);
  for (std::size_t i = 0; i < model.rows(); ++i) {
    if (i == row) continue;
    const std::span<const double> urow = model.u().Row(i);
    double dist2 = 0.0;
    for (std::size_t m = 0; m < model.k(); ++m) {
      const double d = urow[m] * model.singular_values()[m] - anchor[m];
      dist2 += d * d;
    }
    heap.Offer(-dist2, i);
  }
  NeighborSearchResult result;
  for (const auto& entry : heap.TakeSortedDescending()) {
    result.neighbors.push_back(ScoredRow{entry.value, std::sqrt(-entry.key)});
  }
  return result;
}

double ProjectedDistance(const SvdModel& model, std::size_t row_a,
                         std::size_t row_b) {
  TSC_CHECK_LT(row_a, model.rows());
  TSC_CHECK_LT(row_b, model.rows());
  const std::vector<double> a = model.ProjectRow(row_a);
  const std::vector<double> b = model.ProjectRow(row_b);
  double dist2 = 0.0;
  for (std::size_t m = 0; m < model.k(); ++m) {
    const double d = a[m] - b[m];
    dist2 += d * d;
  }
  return std::sqrt(dist2);
}

}  // namespace tsc
