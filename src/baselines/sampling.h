#ifndef TSC_BASELINES_SAMPLING_H_
#define TSC_BASELINES_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace tsc {

/// Uniform row-sampling estimator for aggregate queries — the alternative
/// Section 5.2 mentions ("estimates of answers to aggregate queries can be
/// obtained through sampling ... simple uniform sampling performed poorly
/// compared with SVDD"). A fixed uniform sample of full rows is retained;
/// a query is answered from the sampled rows inside its selection, with
/// sum-type results scaled by the sampling rate.
///
/// Note sampling cannot answer single-cell queries at all (the cell is
/// almost surely not in the sample), which is why the paper treats it as
/// non-comparable for the main problem.
class SamplingEstimator {
 public:
  /// Samples ceil(fraction * N) distinct rows of `data` (which must
  /// outlive the estimator).
  SamplingEstimator(const Matrix* data, double fraction, std::uint64_t seed);

  /// Approximate aggregate; kSum and kCount are scaled by N_selected /
  /// n_sampled_selected, the others are computed on the sampled subset.
  /// Fails with kFailedPrecondition when no sampled row intersects the
  /// query's row selection.
  StatusOr<double> EstimateAggregate(const RegionQuery& query) const;

  /// Bytes the sample occupies: rows * M * b.
  std::uint64_t SampleBytes() const;

  std::size_t sample_size() const { return sampled_rows_.size(); }
  double fraction() const { return fraction_; }

 private:
  const Matrix* data_;
  double fraction_;
  std::vector<std::size_t> sampled_rows_;   ///< sorted
  std::vector<bool> is_sampled_;            ///< size N bitmap
};

}  // namespace tsc

#endif  // TSC_BASELINES_SAMPLING_H_
