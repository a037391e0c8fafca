#include "baselines/dct.h"

#include <cmath>

#include "util/logging.h"

namespace tsc {
namespace {

double Alpha(std::size_t f, std::size_t m) {
  return f == 0 ? std::sqrt(1.0 / static_cast<double>(m))
                : std::sqrt(2.0 / static_cast<double>(m));
}

}  // namespace

DctModel::DctModel(Matrix coefficients, std::size_t num_cols)
    : coefficients_(std::move(coefficients)), num_cols_(num_cols) {
  TSC_CHECK_LE(coefficients_.cols(), num_cols_);
}

double DctModel::ReconstructCell(std::size_t row, std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  const std::span<const double> coeffs = coefficients_.Row(row);
  const double m = static_cast<double>(num_cols_);
  double value = 0.0;
  for (std::size_t f = 0; f < coeffs.size(); ++f) {
    value += Alpha(f, num_cols_) * coeffs[f] *
             std::cos(M_PI * (static_cast<double>(col) + 0.5) *
                      static_cast<double>(f) / m);
  }
  return value;
}

void DctModel::ReconstructRow(std::size_t row, std::span<double> out) const {
  TSC_CHECK_EQ(out.size(), cols());
  const std::span<const double> coeffs = coefficients_.Row(row);
  const double m = static_cast<double>(num_cols_);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    double value = 0.0;
    for (std::size_t f = 0; f < coeffs.size(); ++f) {
      value += Alpha(f, num_cols_) * coeffs[f] *
               std::cos(M_PI * (static_cast<double>(j) + 0.5) *
                        static_cast<double>(f) / m);
    }
    out[j] = value;
  }
}

std::uint64_t DctModel::CompressedBytes() const {
  return kBytesPerValue * rows() * k();
}

std::vector<double> DctForward(std::span<const double> in) {
  const std::size_t m = in.size();
  std::vector<double> out(m, 0.0);
  for (std::size_t f = 0; f < m; ++f) {
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      total += in[j] * std::cos(M_PI * (static_cast<double>(j) + 0.5) *
                                static_cast<double>(f) /
                                static_cast<double>(m));
    }
    out[f] = Alpha(f, m) * total;
  }
  return out;
}

std::vector<double> DctInverse(std::span<const double> coefficients) {
  const std::size_t m = coefficients.size();
  std::vector<double> out(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double total = 0.0;
    for (std::size_t f = 0; f < m; ++f) {
      total += Alpha(f, m) * coefficients[f] *
               std::cos(M_PI * (static_cast<double>(j) + 0.5) *
                        static_cast<double>(f) / static_cast<double>(m));
    }
    out[j] = total;
  }
  return out;
}

Matrix Dct2dForward(const Matrix& x) {
  // Separable: transform every row, then every column of the result.
  Matrix row_pass(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::vector<double> coeffs =
        DctForward(std::span<const double>(x.Row(i).data(), x.cols()));
    std::copy(coeffs.begin(), coeffs.end(), row_pass.Row(i).begin());
  }
  Matrix out(x.rows(), x.cols());
  std::vector<double> column(x.rows());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    for (std::size_t i = 0; i < x.rows(); ++i) column[i] = row_pass(i, j);
    const std::vector<double> coeffs = DctForward(column);
    for (std::size_t i = 0; i < x.rows(); ++i) out(i, j) = coeffs[i];
  }
  return out;
}

Matrix Dct2dInverse(const Matrix& coefficients) {
  Matrix col_pass(coefficients.rows(), coefficients.cols());
  std::vector<double> column(coefficients.rows());
  for (std::size_t j = 0; j < coefficients.cols(); ++j) {
    for (std::size_t i = 0; i < coefficients.rows(); ++i) {
      column[i] = coefficients(i, j);
    }
    const std::vector<double> values = DctInverse(column);
    for (std::size_t i = 0; i < coefficients.rows(); ++i) {
      col_pass(i, j) = values[i];
    }
  }
  Matrix out(coefficients.rows(), coefficients.cols());
  for (std::size_t i = 0; i < coefficients.rows(); ++i) {
    const std::vector<double> values = DctInverse(
        std::span<const double>(col_pass.Row(i).data(), col_pass.cols()));
    std::copy(values.begin(), values.end(), out.Row(i).begin());
  }
  return out;
}

Matrix Dct2dTruncatedReconstruction(const Matrix& x, std::size_t rows_kept,
                                    std::size_t cols_kept) {
  TSC_CHECK_LE(rows_kept, x.rows());
  TSC_CHECK_LE(cols_kept, x.cols());
  Matrix coefficients = Dct2dForward(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (i >= rows_kept || j >= cols_kept) coefficients(i, j) = 0.0;
    }
  }
  return Dct2dInverse(coefficients);
}

StatusOr<DctModel> BuildDctModel(RowSource* source, std::size_t k) {
  const std::size_t n = source->rows();
  const std::size_t m = source->cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty source");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  k = std::min(k, m);

  // Precompute the cosine basis for the k retained frequencies so the
  // build is O(N * M * k) instead of trig-bound.
  Matrix basis(k, m);
  for (std::size_t f = 0; f < k; ++f) {
    const double alpha = Alpha(f, m);
    for (std::size_t j = 0; j < m; ++j) {
      basis(f, j) = alpha * std::cos(M_PI * (static_cast<double>(j) + 0.5) *
                                     static_cast<double>(f) /
                                     static_cast<double>(m));
    }
  }

  Matrix coefficients(n, k);
  std::vector<double> row(m);
  TSC_RETURN_IF_ERROR(source->Reset());
  for (std::size_t i = 0;; ++i) {
    TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
    if (!has_row) break;
    if (i >= n) return Status::Internal("source grew during build");
    for (std::size_t f = 0; f < k; ++f) {
      double total = 0.0;
      const std::span<const double> brow = basis.Row(f);
      for (std::size_t j = 0; j < m; ++j) total += row[j] * brow[j];
      coefficients(i, f) = total;
    }
  }
  return DctModel(std::move(coefficients), m);
}

}  // namespace tsc
