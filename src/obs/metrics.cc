#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <mutex>
#include <vector>

namespace tsc::obs {

namespace detail {

std::atomic<bool> g_instruments_enabled{true};
constinit thread_local std::uint32_t t_thread_id = 0xffffffffu;

namespace {

/// Ids handed out so far and those whose threads have exited. Leaked on
/// purpose: threads may exit during static destruction.
struct ThreadIds {
  std::mutex mu;
  std::uint32_t next = 0;
  std::vector<std::uint32_t> free;  ///< min-heap
};

ThreadIds& Ids() {
  static ThreadIds* ids = new ThreadIds();
  return *ids;
}

/// Returns the thread's id to the free list when the thread exits. The
/// mutex orders the exiting thread's last slot writes before the next
/// owner's first.
struct ThreadIdRelease {
  ~ThreadIdRelease() {
    ThreadIds& ids = Ids();
    std::lock_guard<std::mutex> lock(ids.mu);
    ids.free.push_back(t_thread_id);
    std::push_heap(ids.free.begin(), ids.free.end(), std::greater<>());
    t_thread_id = 0xffffffffu;
  }
};

}  // namespace

std::uint32_t AssignThreadId() {
  {
    ThreadIds& ids = Ids();
    std::lock_guard<std::mutex> lock(ids.mu);
    if (ids.free.empty()) {
      t_thread_id = ids.next++;
    } else {
      std::pop_heap(ids.free.begin(), ids.free.end(), std::greater<>());
      t_thread_id = ids.free.back();
      ids.free.pop_back();
    }
  }
  thread_local ThreadIdRelease release;
  (void)release;
  return t_thread_id;
}

}  // namespace detail

void SetInstrumentsEnabled(bool enabled) {
  detail::g_instruments_enabled.store(enabled, std::memory_order_relaxed);
}

bool InstrumentsEnabled() {
  return detail::g_instruments_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::size_t Histogram::BucketFor(double value) noexcept {
  if (!(value >= 1.0)) return 0;  // also catches NaN and negatives
  // Bucket i covers [2^(i-1), 2^i): i = floor(log2(value)) + 1.
  const double exponent = std::floor(std::log2(value));
  const std::size_t index = static_cast<std::size_t>(exponent) + 1;
  return std::min(index, kBuckets - 1);
}

double Histogram::BucketLowerBound(std::size_t index) noexcept {
  if (index == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(index) - 1);  // 2^(i-1)
}

double Histogram::BucketUpperBound(std::size_t index) noexcept {
  return std::ldexp(1.0, static_cast<int>(index));  // 2^i
}

std::uint64_t Histogram::Count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::QuantileFromBuckets(
    const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
    double observed_max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample the quantile falls on (1-based, nearest-rank with
  // interpolation inside the bucket).
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (rank <= static_cast<double>(cumulative)) {
      const double lower = BucketLowerBound(i);
      double upper = BucketUpperBound(i);
      // The top populated bucket cannot exceed the observed maximum.
      // >= matters: when every sample equals the bucket's lower bound
      // (max == lower, e.g. all-1s batches), interpolation against the
      // full bucket width used to report p50 = 1.5 > max.
      if (observed_max >= lower && observed_max < upper) upper = observed_max;
      const double fraction =
          (rank - before) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
  }
  return observed_max;
}

double Histogram::Quantile(double q) const {
  std::array<std::uint64_t, kBuckets> copy;
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    copy[i] = buckets_[i].load(std::memory_order_relaxed);
    count += copy[i];
  }
  return QuantileFromBuckets(copy, count,
                             max_.load(std::memory_order_relaxed), q);
}

Histogram::Summary Histogram::Snapshot() const {
  Summary summary;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    summary.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    summary.count += summary.buckets[i];
  }
  summary.sum = sum_.load(std::memory_order_relaxed);
  summary.max = max_.load(std::memory_order_relaxed);
  summary.p50 =
      QuantileFromBuckets(summary.buckets, summary.count, summary.max, 0.50);
  summary.p90 =
      QuantileFromBuckets(summary.buckets, summary.count, summary.max, 0.90);
  summary.p99 =
      QuantileFromBuckets(summary.buckets, summary.count, summary.max, 0.99);
  return summary;
}

void Histogram::Reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry& MetricRegistry::Default() {
  // Leaked on purpose: instruments are referenced from static locals in
  // hot paths, which must stay valid through static destruction.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> values;
  values.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    values.emplace_back(name, gauge->Value());
  }
  return values;
}

std::vector<std::pair<std::string, Histogram::Summary>>
MetricRegistry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Summary>> values;
  values.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    values.emplace_back(name, histogram->Snapshot());
  }
  return values;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace tsc::obs
