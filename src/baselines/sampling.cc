#include "baselines/sampling.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace tsc {

SamplingEstimator::SamplingEstimator(const Matrix* data, double fraction,
                                     std::uint64_t seed)
    : data_(data), fraction_(fraction) {
  TSC_CHECK_GT(fraction, 0.0);
  TSC_CHECK_LE(fraction, 1.0);
  const std::size_t n = data_->rows();
  const std::size_t count = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(n))));
  Rng rng(seed);
  sampled_rows_ = rng.SampleWithoutReplacement(n, std::max<std::size_t>(count, 1));
  is_sampled_.assign(n, false);
  for (const std::size_t r : sampled_rows_) is_sampled_[r] = true;
}

StatusOr<double> SamplingEstimator::EstimateAggregate(
    const RegionQuery& query) const {
  RunningStats stats;
  std::size_t sampled_selected_rows = 0;
  for (const std::size_t i : query.row_ids) {
    if (i >= data_->rows() || !is_sampled_[i]) continue;
    ++sampled_selected_rows;
    const std::span<const double> row = data_->Row(i);
    for (const std::size_t j : query.col_ids) {
      TSC_DCHECK(j < data_->cols());
      stats.Add(row[j]);
    }
  }
  if (sampled_selected_rows == 0) {
    return Status::FailedPrecondition(
        "no sampled row intersects the query selection");
  }
  const double scale = static_cast<double>(query.row_ids.size()) /
                       static_cast<double>(sampled_selected_rows);
  switch (query.fn) {
    case AggregateFn::kSum:
      return stats.sum() * scale;
    case AggregateFn::kCount:
      return static_cast<double>(stats.count()) * scale;
    case AggregateFn::kAvg:
      return stats.mean();
    case AggregateFn::kMin:
      return stats.min();
    case AggregateFn::kMax:
      return stats.max();
    case AggregateFn::kStddev:
      return stats.stddev();
    case AggregateFn::kMedian:
      return Status::Unimplemented(
          "median over a row sample is not meaningfully scalable");
  }
  return Status::Internal("unhandled aggregate");
}

std::uint64_t SamplingEstimator::SampleBytes() const {
  return kBytesPerValue * sampled_rows_.size() * data_->cols();
}

}  // namespace tsc
