#ifndef TSC_OBS_METRICS_H_
#define TSC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsc::obs {

// ---------------------------------------------------------------------------
// Compile-time kill switch. With -DTSC_OBS_DISABLED every instrument method
// below compiles to an empty inline body, so the paper-fidelity numbers carry
// zero metric cost. The types and the registry keep their full API either
// way: call sites never need #ifdefs.
// ---------------------------------------------------------------------------

/// Runtime kill switch (default on). Cheap enough to leave on in
/// production; the overhead-guard test uses it to measure the cost of the
/// instruments against an instrument-free baseline inside one binary.
void SetInstrumentsEnabled(bool enabled);
bool InstrumentsEnabled();

namespace detail {
extern std::atomic<bool> g_instruments_enabled;

/// Small dense id for the calling thread, assigned on first use and
/// handed back when the thread exits: a new thread takes the smallest id
/// no live thread holds, so while at most N threads are live at once
/// every id is below N. Shared by the counter sharding and the trace
/// recorder's tid column.
std::uint32_t AssignThreadId();
extern constinit thread_local std::uint32_t t_thread_id;
inline std::uint32_t ThreadId() {
  const std::uint32_t id = t_thread_id;
  return id != 0xffffffffu ? id : AssignThreadId();
}
}  // namespace detail

/// Dense id of the calling thread (0 = the first thread that asked); an
/// exited thread's id is reused by a later thread.
inline std::uint32_t CurrentThreadId() { return detail::ThreadId(); }

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonic event counter, sharded across cache-line-padded per-thread
/// slots so the hot-path increment is a plain relaxed load + store on a
/// line no other thread writes (~1ns), never a contended RMW. Value()
/// aggregates the slots on read.
///
/// Threads are mapped to slots by their dense id modulo kSlots. Ids of
/// exited threads are reused, so the count is exact while at most kSlots
/// threads are live at once, however many have come and gone. Beyond
/// that, two live threads share a slot and may lose increments to each
/// other — an accepted trade for keeping the instrument off the critical
/// path.
class Counter {
 public:
  static constexpr std::size_t kSlots = 64;

  Counter() : slots_(new Slot[kSlots]) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n) noexcept {
#ifndef TSC_OBS_DISABLED
    if (!detail::g_instruments_enabled.load(std::memory_order_relaxed)) return;
    Slot& slot = slots_[detail::ThreadId() & (kSlots - 1)];
    slot.value.store(slot.value.load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Increment() noexcept { Add(1); }

  /// Sum over all slots. Concurrent increments may or may not be visible;
  /// the value is exact once writers quiesce.
  std::uint64_t Value() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      total += slots_[s].value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every slot. Call while writers are quiet (stats operation).
  void Reset() noexcept {
    for (std::size_t s = 0; s < kSlots; ++s) {
      slots_[s].value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Last-written (Set) or accumulated (Add) instantaneous value, e.g. the
/// number of blocks currently resident across all caches.
class Gauge {
 public:
  void Set(double value) noexcept {
#ifndef TSC_OBS_DISABLED
    if (!detail::g_instruments_enabled.load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  void Add(double delta) noexcept {
#ifndef TSC_OBS_DISABLED
    if (!detail::g_instruments_enabled.load(std::memory_order_relaxed)) return;
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
#else
    (void)delta;
#endif
  }

  double Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log2-bucketed distribution for non-negative samples (latencies in
/// microseconds, probe lengths, ...). Bucket 0 covers [0, 1); bucket i
/// covers [2^(i-1), 2^i). Recording is one relaxed fetch_add on the bucket
/// plus a (usually skipped) max update; quantiles interpolate linearly
/// inside the winning bucket, with the top bucket clamped to the observed
/// maximum so p99/max never overshoot the data.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Record(double value) noexcept {
#ifndef TSC_OBS_DISABLED
    if (!detail::g_instruments_enabled.load(std::memory_order_relaxed)) return;
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    double current_max = max_.load(std::memory_order_relaxed);
    while (value > current_max &&
           !max_.compare_exchange_weak(current_max, value,
                                       std::memory_order_relaxed)) {
    }
    double current_sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current_sum, current_sum + value,
                                       std::memory_order_relaxed)) {
    }
#else
    (void)value;
#endif
  }

  /// Bucket index for `value` under the log2 rule above.
  static std::size_t BucketFor(double value) noexcept;
  /// Inclusive lower bound of bucket `index` (0, 1, 2, 4, 8, ...).
  static double BucketLowerBound(std::size_t index) noexcept;
  /// Exclusive upper bound of bucket `index` (1, 2, 4, 8, ...).
  static double BucketUpperBound(std::size_t index) noexcept;

  /// Point-in-time aggregate view; quantiles precomputed for export. The
  /// raw bucket counts ride along so exporters that need the full
  /// distribution (the Prometheus text serializer's cumulative `le`
  /// series) don't have to re-read the live histogram.
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  Summary Snapshot() const;

  std::uint64_t Count() const noexcept;
  /// Interpolated quantile, q in [0, 1], from a consistent bucket copy.
  double Quantile(double q) const;

  void Reset() noexcept;

 private:
  /// The quantile interpolation over a copied bucket array.
  static double QuantileFromBuckets(
      const std::array<std::uint64_t, kBuckets>& buckets,
      std::uint64_t count, double observed_max, double q);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

/// Named instrument directory. Get* creates on first use and returns a
/// stable reference — instruments are never deleted, so hot paths cache
/// the reference (static local) and skip the map lookup afterwards.
/// Instrument names are dotted lowercase paths ("block_cache.hits"); see
/// docs/observability.md for the conventions.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every built-in instrument reports to.
  static MetricRegistry& Default();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Sorted point-in-time values, for snapshot/export.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, Histogram::Summary>> HistogramValues()
      const;

  /// Zeroes every instrument (names stay registered).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tsc::obs

#endif  // TSC_OBS_METRICS_H_
