#include "lib/ablation/robust_svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "util/logging.h"
#include "util/stats.h"

namespace tsc {
namespace {

/// Factors shared across refinement rounds.
struct Subspace {
  std::vector<double> singular_values;
  Matrix v;  // M x k

  std::size_t k() const { return singular_values.size(); }
};

/// Projects `row` onto the subspace and writes the rank-k reconstruction
/// into `recon`.
void ReconstructRow(const Subspace& subspace, std::span<const double> row,
                    std::span<double> recon) {
  const std::size_t m = row.size();
  std::fill(recon.begin(), recon.end(), 0.0);
  for (std::size_t p = 0; p < subspace.k(); ++p) {
    double proj = 0.0;
    for (std::size_t j = 0; j < m; ++j) proj += row[j] * subspace.v(j, p);
    for (std::size_t j = 0; j < m; ++j) recon[j] += proj * subspace.v(j, p);
  }
}

/// Trims `row` against the subspace into `clean`. A single projection of
/// the raw row is self-confirming — a spike inflates the projection, so
/// the "prediction" substituted for the spike still carries a chunk of
/// the spike and survives into the next round. The fix is to re-project
/// the CLEANED row a few times: each inner iteration knocks the spike's
/// leverage down geometrically. Returns the number of trimmed cells.
std::size_t TrimRow(const Subspace& subspace, std::span<const double> row,
                    double threshold, std::span<double> clean,
                    std::span<double> recon) {
  const std::size_t m = row.size();
  std::copy(row.begin(), row.end(), clean.begin());
  std::size_t trimmed = 0;
  constexpr int kInnerRefinements = 3;
  for (int t = 0; t < kInnerRefinements; ++t) {
    ReconstructRow(subspace, clean, recon);
    trimmed = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (std::abs(row[j] - recon[j]) > threshold) {
        clean[j] = recon[j];
        ++trimmed;
      } else {
        clean[j] = row[j];
      }
    }
    if (trimmed == 0) break;
  }
  return trimmed;
}

/// Extracts the top-k subspace from an eigendecomposition of C.
StatusOr<Subspace> SubspaceFromSimilarity(const Matrix& c, std::size_t k,
                                          EigenSolverKind solver) {
  TSC_ASSIGN_OR_RETURN(EigenDecomposition eigen, SymmetricEigen(c, solver));
  const double lambda_max =
      eigen.eigenvalues.empty() ? 0.0 : std::max(0.0, eigen.eigenvalues[0]);
  std::size_t effective = 0;
  for (std::size_t j = 0; j < std::min(k, eigen.eigenvalues.size()); ++j) {
    if (eigen.eigenvalues[j] > kSvdRelativeTolerance * lambda_max &&
        eigen.eigenvalues[j] > 0.0) {
      ++effective;
    } else {
      break;
    }
  }
  if (effective == 0) {
    return Status::InvalidArgument("matrix is numerically zero");
  }
  Subspace subspace;
  subspace.singular_values.resize(effective);
  subspace.v = Matrix(c.rows(), effective);
  for (std::size_t j = 0; j < effective; ++j) {
    subspace.singular_values[j] = std::sqrt(eigen.eigenvalues[j]);
    for (std::size_t i = 0; i < c.rows(); ++i) {
      subspace.v(i, j) = eigen.eigenvectors(i, j);
    }
  }
  return subspace;
}

}  // namespace

StatusOr<SvdModel> BuildRobustSvdModel(RowSource* source,
                                       const RobustSvdOptions& options,
                                       RobustSvdDiagnostics* diagnostics) {
  const std::size_t n = source->rows();
  const std::size_t m = source->cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty source");
  if (options.k == 0) return Status::InvalidArgument("k must be positive");

  std::size_t passes = 0;
  std::vector<double> row(m);
  std::vector<double> recon(m);
  std::vector<double> clean(m);

  // Round 0: plain fit. Pass A accumulates C; the eigenproblem yields
  // the initial subspace and a residual-scale estimate needs pass B.
  TSC_ASSIGN_OR_RETURN(Matrix c, AccumulateColumnSimilarity(source));
  ++passes;
  TSC_ASSIGN_OR_RETURN(Subspace subspace,
                       SubspaceFromSimilarity(c, options.k, options.solver));

  for (std::size_t round = 0; round < options.iterations; ++round) {
    // First sub-pass of the round: residual scale under the current
    // subspace (Welford over all cells).
    RunningStats residuals;
    TSC_RETURN_IF_ERROR(source->Reset());
    ++passes;
    for (;;) {
      TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
      if (!has_row) break;
      ReconstructRow(subspace, row, recon);
      for (std::size_t j = 0; j < m; ++j) residuals.Add(row[j] - recon[j]);
    }
    const double sigma = residuals.stddev();
    const double threshold = options.trim_sigma * sigma;
    if (diagnostics != nullptr) {
      diagnostics->residual_stddev.push_back(sigma);
    }

    // Second sub-pass: accumulate C over trimmed rows.
    Matrix c_clean(m, m);
    std::size_t trimmed = 0;
    TSC_RETURN_IF_ERROR(source->Reset());
    ++passes;
    for (;;) {
      TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
      if (!has_row) break;
      trimmed += TrimRow(subspace, row, threshold, clean, recon);
      for (std::size_t j = 0; j < m; ++j) {
        const double xj = clean[j];
        if (xj == 0.0) continue;
        double* crow = &c_clean(j, 0);
        for (std::size_t l = j; l < m; ++l) crow[l] += xj * clean[l];
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t l = j + 1; l < m; ++l) c_clean(l, j) = c_clean(j, l);
    }
    if (diagnostics != nullptr) diagnostics->trimmed_cells.push_back(trimmed);

    TSC_ASSIGN_OR_RETURN(
        subspace, SubspaceFromSimilarity(c_clean, options.k, options.solver));
    if (trimmed == 0) break;  // converged: nothing left to trim
  }

  // Final pass: U rows from CLEANED data against the final subspace, so
  // the spikes do not leak into the coordinates either.
  //
  // The trim threshold is re-derived from the final subspace residuals
  // of the previous round's sigma; using the last sigma is fine because
  // sigma shrinks monotonically as the fit improves.
  RunningStats final_residuals;
  TSC_RETURN_IF_ERROR(source->Reset());
  ++passes;
  for (;;) {
    TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
    if (!has_row) break;
    ReconstructRow(subspace, row, recon);
    for (std::size_t j = 0; j < m; ++j) final_residuals.Add(row[j] - recon[j]);
  }
  const double final_threshold = options.trim_sigma * final_residuals.stddev();

  Matrix u(n, subspace.k());
  TSC_RETURN_IF_ERROR(source->Reset());
  ++passes;
  for (std::size_t i = 0;; ++i) {
    TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
    if (!has_row) break;
    if (i >= n) return Status::Internal("source grew between passes");
    TrimRow(subspace, row, final_threshold, clean, recon);
    for (std::size_t p = 0; p < subspace.k(); ++p) {
      double proj = 0.0;
      for (std::size_t j = 0; j < m; ++j) proj += clean[j] * subspace.v(j, p);
      u(i, p) = proj / subspace.singular_values[p];
    }
  }

  if (diagnostics != nullptr) diagnostics->passes = passes;
  return SvdModel(std::move(u), std::move(subspace.singular_values),
                  std::move(subspace.v));
}

}  // namespace tsc
