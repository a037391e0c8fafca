#ifndef TSC_UTIL_STATS_H_
#define TSC_UTIL_STATS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace tsc {

/// Single-pass mean/variance accumulator (Welford). Numerically stable for
/// the long streams produced when scanning multi-gigabyte matrices.
class RunningStats {
 public:
  void Add(double value);
  /// Add() for a stream whose mean, variance and sum are never read:
  /// counts `value` and folds it into min and max, skipping the moments
  /// and their division. min(), max() and count() match Add()'s.
  void AddCountMinMax(double value) {
    min_ = count_ == 0 ? value : std::min(min_, value);
    max_ = count_ == 0 ? value : std::max(max_, value);
    ++count_;
  }

  /// Merges another accumulator (parallel/chunked scans).
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (divide by n).
  double variance() const;
  /// Population standard deviation.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Order statistics over a materialized sample.
class Quantiles {
 public:
  explicit Quantiles(std::vector<double> values);

  /// Linear-interpolated quantile, q in [0, 1]. Requires a non-empty sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  std::size_t count() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Fixed-width summary line, e.g. for bench output:
/// "n=1000 mean=12.3 sd=4.5 min=0.1 med=11.0 max=40.2".
std::string SummaryLine(const std::vector<double>& values);

}  // namespace tsc

#endif  // TSC_UTIL_STATS_H_
