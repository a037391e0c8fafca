#include "lib/baselines/wavelet.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bounded_heap.h"
#include "util/logging.h"

namespace tsc {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

bool IsPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::vector<double> HaarForward(std::vector<double> signal) {
  TSC_CHECK(IsPowerOfTwo(signal.size()));
  std::vector<double> scratch(signal.size());
  for (std::size_t len = signal.size(); len > 1; len /= 2) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) {
      scratch[i] = (signal[2 * i] + signal[2 * i + 1]) * kInvSqrt2;
      scratch[half + i] = (signal[2 * i] - signal[2 * i + 1]) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(len),
              signal.begin());
  }
  return signal;
}

std::vector<double> HaarInverse(std::vector<double> coefficients) {
  TSC_CHECK(IsPowerOfTwo(coefficients.size()));
  std::vector<double> scratch(coefficients.size());
  for (std::size_t len = 2; len <= coefficients.size(); len *= 2) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) {
      scratch[2 * i] =
          (coefficients[i] + coefficients[half + i]) * kInvSqrt2;
      scratch[2 * i + 1] =
          (coefficients[i] - coefficients[half + i]) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(len),
              coefficients.begin());
  }
  return coefficients;
}

double HaarBasisValue(std::size_t length, std::size_t index,
                      std::size_t pos) {
  TSC_DCHECK(IsPowerOfTwo(length));
  TSC_DCHECK(index < length && pos < length);
  if (index == 0) {
    return 1.0 / std::sqrt(static_cast<double>(length));
  }
  const std::size_t level = static_cast<std::size_t>(std::bit_width(index)) - 1;
  const std::size_t q = index - (static_cast<std::size_t>(1) << level);
  const std::size_t support = length >> level;
  const std::size_t start = q * support;
  if (pos < start || pos >= start + support) return 0.0;
  const double amplitude = std::sqrt(
      static_cast<double>(static_cast<std::size_t>(1) << level) /
      static_cast<double>(length));
  return pos < start + support / 2 ? amplitude : -amplitude;
}

HaarModel::HaarModel(std::vector<std::vector<Coefficient>> rows,
                     std::size_t num_cols, std::size_t padded_length)
    : rows_(std::move(rows)),
      num_cols_(num_cols),
      padded_length_(padded_length) {
  TSC_CHECK(IsPowerOfTwo(padded_length_));
  TSC_CHECK_GE(padded_length_, num_cols_);
}

double HaarModel::ReconstructCell(std::size_t row, std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  double value = 0.0;
  for (const Coefficient& c : rows_[row]) {
    value += c.value * HaarBasisValue(padded_length_, c.index, col);
  }
  return value;
}

std::uint64_t HaarModel::CompressedBytes() const {
  // k coefficients per row, each a b-byte value plus a 4-byte index.
  std::uint64_t coeffs = 0;
  for (const auto& row : rows_) coeffs += row.size();
  return coeffs * (kBytesPerValue + 4);
}

StatusOr<HaarModel> BuildHaarModel(RowSource* source, std::size_t k) {
  const std::size_t n = source->rows();
  const std::size_t m = source->cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty source");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const std::size_t padded = NextPowerOfTwo(m);
  k = std::min(k, padded);

  std::vector<std::vector<HaarModel::Coefficient>> rows;
  rows.reserve(n);
  std::vector<double> row(m);
  TSC_RETURN_IF_ERROR(source->Reset());
  for (;;) {
    TSC_ASSIGN_OR_RETURN(const bool has_row, source->NextRow(row));
    if (!has_row) break;
    std::vector<double> padded_row(padded, 0.0);
    std::copy(row.begin(), row.end(), padded_row.begin());
    const std::vector<double> coeffs = HaarForward(std::move(padded_row));
    BoundedTopHeap<double, HaarModel::Coefficient> top(k);
    for (std::size_t idx = 0; idx < coeffs.size(); ++idx) {
      top.Offer(std::abs(coeffs[idx]),
                HaarModel::Coefficient{static_cast<std::uint32_t>(idx),
                                       coeffs[idx]});
    }
    std::vector<HaarModel::Coefficient> kept;
    kept.reserve(k);
    for (const auto& entry : top.TakeSortedDescending()) {
      kept.push_back(entry.value);
    }
    rows.push_back(std::move(kept));
  }
  return HaarModel(std::move(rows), m, padded);
}

}  // namespace tsc
