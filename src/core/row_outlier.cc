#include "core/row_outlier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/space_budget.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "storage/row_source.h"
#include "util/bounded_heap.h"
#include "util/logging.h"

namespace tsc {

RowOutlierModel::RowOutlierModel(
    SvdModel svd,
    std::unordered_map<std::size_t, std::vector<double>> stored_rows)
    : svd_(std::move(svd)), stored_rows_(std::move(stored_rows)) {}

double RowOutlierModel::ReconstructCell(std::size_t row,
                                        std::size_t col) const {
  const auto it = stored_rows_.find(row);
  if (it != stored_rows_.end()) return it->second[col];
  return svd_.ReconstructCell(row, col);
}

void RowOutlierModel::ReconstructRow(std::size_t row,
                                     std::span<double> out) const {
  const auto it = stored_rows_.find(row);
  if (it != stored_rows_.end()) {
    std::copy(it->second.begin(), it->second.end(), out.begin());
    return;
  }
  svd_.ReconstructRow(row, out);
}

std::uint64_t RowOutlierModel::CompressedBytes() const {
  const std::uint64_t per_row =
      static_cast<std::uint64_t>(cols()) * kBytesPerValue + 8;
  return svd_.CompressedBytes() + stored_rows_.size() * per_row;
}

StatusOr<RowOutlierModel> BuildRowOutlierModel(
    const Matrix& data, const SvddBuildOptions& options) {
  const std::size_t n = data.rows();
  const std::size_t m = data.cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty matrix");
  const SpaceBudget budget =
      SpaceBudget::FromPercent(n, m, options.space_percent);
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(m) * kBytesPerValue + 8;

  // Shared pass 1: eigensystem of C, exactly as the SVDD build.
  MatrixRowSource source(&data);
  TSC_ASSIGN_OR_RETURN(Matrix c, AccumulateColumnSimilarity(&source));
  TSC_ASSIGN_OR_RETURN(EigenDecomposition eigen,
                       SymmetricEigen(c, options.solver));
  const double lambda_max =
      eigen.eigenvalues.empty() ? 0.0 : std::max(0.0, eigen.eigenvalues[0]);
  std::size_t numerical_rank = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (eigen.eigenvalues[j] > kSvdRelativeTolerance * lambda_max &&
        eigen.eigenvalues[j] > 0.0) {
      ++numerical_rank;
    } else {
      break;
    }
  }
  const std::size_t k_max = std::min(budget.MaxK(), numerical_rank);
  if (k_max == 0) {
    return Status::ResourceExhausted("budget below one principal component");
  }

  // Evaluate every affordable k: total SSE minus the SSE of the
  // affordable count of worst rows (those get stored verbatim).
  std::vector<double> projection(k_max);
  std::vector<double> row_sse(n, 0.0);

  // Cache per-row squared error contribution at each candidate k by one
  // in-memory sweep (data is in memory for this baseline).
  // row_err_at_k[i] accumulated incrementally per component.
  Matrix row_err_by_k(n, k_max);  // SSE of row i using first (p+1) comps
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> row = data.Row(i);
    for (std::size_t p = 0; p < k_max; ++p) {
      double dot = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        dot += row[j] * eigen.eigenvectors(j, p);
      }
      projection[p] = dot;
    }
    // SSE at k = ||x||^2 - sum_{p<k} proj_p^2 (V orthonormal).
    const double energy = [&] {
      double total = 0.0;
      for (const double v : row) total += v * v;
      return total;
    }();
    double captured = 0.0;
    for (std::size_t p = 0; p < k_max; ++p) {
      captured += projection[p] * projection[p];
      row_err_by_k(i, p) = std::max(0.0, energy - captured);
    }
  }

  std::size_t best_k = 1;
  std::uint64_t best_rows = 0;
  double best_eps = std::numeric_limits<double>::infinity();
  std::vector<double> errs(n);
  for (std::size_t k = 1; k <= k_max; ++k) {
    const std::uint64_t leftover =
        budget.total_bytes > budget.SvdBytes(k)
            ? budget.total_bytes - budget.SvdBytes(k)
            : 0;
    const std::uint64_t storable =
        std::min<std::uint64_t>(leftover / row_bytes, n);
    for (std::size_t i = 0; i < n; ++i) errs[i] = row_err_by_k(i, k - 1);
    double eps = 0.0;
    if (storable < n) {
      // Sum of all but the `storable` largest row errors.
      std::sort(errs.begin(), errs.end());
      for (std::size_t i = 0; i + storable < n; ++i) eps += errs[i];
    }
    if (eps < best_eps) {
      best_eps = eps;
      best_k = k;
      best_rows = storable;
    }
  }

  // Build the SVD model at best_k and collect the worst rows.
  MatrixRowSource rebuild_source(&data);
  SvdBuildOptions svd_options;
  svd_options.k = best_k;
  svd_options.solver = options.solver;
  TSC_ASSIGN_OR_RETURN(SvdModel svd, BuildSvdModel(&rebuild_source, svd_options));

  BoundedTopHeap<double, std::size_t> worst(static_cast<std::size_t>(best_rows));
  for (std::size_t i = 0; i < n; ++i) {
    worst.Offer(row_err_by_k(i, best_k - 1), i);
  }
  std::unordered_map<std::size_t, std::vector<double>> stored;
  for (const auto& entry : worst.TakeSortedDescending()) {
    const std::span<const double> row = data.Row(entry.value);
    stored.emplace(entry.value, std::vector<double>(row.begin(), row.end()));
  }
  return RowOutlierModel(std::move(svd), std::move(stored));
}

}  // namespace tsc
