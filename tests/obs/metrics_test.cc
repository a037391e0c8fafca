#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tsc::obs {
namespace {

#ifdef TSC_OBS_DISABLED
#define SKIP_IF_OBS_DISABLED() \
  GTEST_SKIP() << "instruments compiled out (TSC_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_DISABLED()
#endif

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  SKIP_IF_OBS_DISABLED();
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ShardedIncrementsAggregateExactly) {
  SKIP_IF_OBS_DISABLED();
  // Up to kSlots live threads map to distinct slots, so no increment may
  // be lost: 8 threads x 10k increments must sum exactly.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, ExactOnceThreadsHaveComeAndGone) {
  SKIP_IF_OBS_DISABLED();
  // A long-lived thread, then short-lived threads until a thread that
  // never reused ids would hand the next one the long-lived thread's
  // slot (id + kSlots), then two live threads hammering one counter.
  // Reused ids keep the two live threads in different slots.
  constexpr std::uint64_t kPerThread = 20'000'000;
  Counter counter;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const auto hammer = [&] {
    (void)CurrentThreadId();
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
  };
  std::uint32_t first_id = 0;
  std::atomic<bool> first_has_id{false};
  std::thread first([&] {
    first_id = CurrentThreadId();
    first_has_id.store(true);
    hammer();
  });
  while (!first_has_id.load()) std::this_thread::yield();
  const std::uint32_t collide =
      (first_id + Counter::kSlots - 1) % Counter::kSlots;
  for (std::size_t t = 0; t < 2 * Counter::kSlots; ++t) {
    std::uint32_t id = 0;
    std::thread([&id] { id = CurrentThreadId(); }).join();
    if (id % Counter::kSlots == collide) break;
  }
  std::thread second(hammer);
  while (ready.load() < 2) std::this_thread::yield();
  go.store(true);
  first.join();
  second.join();
  EXPECT_EQ(counter.Value(), 2 * kPerThread);
}

TEST(CounterTest, RuntimeDisableSuppressesIncrements) {
  SKIP_IF_OBS_DISABLED();
  Counter counter;
  SetInstrumentsEnabled(false);
  counter.Add(100);
  SetInstrumentsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(CounterTest, DisabledBuildIsAlwaysZero) {
#ifdef TSC_OBS_DISABLED
  Counter counter;
  counter.Add(100);
  EXPECT_EQ(counter.Value(), 0u);
#else
  GTEST_SKIP() << "only meaningful under TSC_OBS_DISABLED";
#endif
}

TEST(GaugeTest, SetAndAdd) {
  SKIP_IF_OBS_DISABLED();
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(5.0);
  EXPECT_EQ(gauge.Value(), 5.0);
  gauge.Set(-1.5);
  EXPECT_EQ(gauge.Value(), -1.5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Static mapping, valid regardless of the kill switches: bucket 0 is
  // [0, 1), bucket i is [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(0.999), 0u);
  EXPECT_EQ(Histogram::BucketFor(1.0), 1u);
  EXPECT_EQ(Histogram::BucketFor(1.999), 1u);
  EXPECT_EQ(Histogram::BucketFor(2.0), 2u);
  EXPECT_EQ(Histogram::BucketFor(3.999), 2u);
  EXPECT_EQ(Histogram::BucketFor(4.0), 3u);
  EXPECT_EQ(Histogram::BucketFor(1024.0), 11u);

  // Degenerate inputs land safely in bucket 0.
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<double>::quiet_NaN()),
            0u);
  // Huge values clamp to the top bucket instead of indexing out of range.
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<double>::max()),
            Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0.0);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketLowerBound(4), 8.0);
  EXPECT_EQ(Histogram::BucketUpperBound(4), 16.0);
  // Round trip: every value sits inside its own bucket's bounds.
  for (double value : {0.3, 1.5, 7.9, 100.0, 4096.5}) {
    const std::size_t bucket = Histogram::BucketFor(value);
    EXPECT_GE(value, Histogram::BucketLowerBound(bucket));
    EXPECT_LT(value, Histogram::BucketUpperBound(bucket));
  }
}

TEST(HistogramTest, CountSumMax) {
  SKIP_IF_OBS_DISABLED();
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(10.0);
  histogram.Record(100.0);
  const Histogram::Summary summary = histogram.Snapshot();
  EXPECT_EQ(summary.count, 3u);
  EXPECT_DOUBLE_EQ(summary.sum, 111.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean(), 37.0);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_EQ(histogram.Count(), 0u);
}

TEST(HistogramTest, QuantileSingleValueClampsToObservedMax) {
  SKIP_IF_OBS_DISABLED();
  // One sample at 10 fills bucket [8, 16); interpolation would say 8..16
  // but the observed max clamps the bucket's upper edge to 10, so every
  // quantile stays within [8, 10].
  Histogram histogram;
  histogram.Record(10.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(histogram.Quantile(q), 8.0) << "q=" << q;
    EXPECT_LE(histogram.Quantile(q), 10.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileNeverExceedsObservedMaxOnSingleBucketData) {
  SKIP_IF_OBS_DISABLED();
  // Regression (BENCH_9 server.batch_size): every sample equal to a
  // bucket's LOWER bound — all-1s batches land in bucket [1, 2) with
  // observed max == lower == 1 — used to interpolate against the full
  // bucket width and report p50=1.5, p99=1.99 on data whose max is 1.
  Histogram ones;
  for (int i = 0; i < 100; ++i) ones.Record(1.0);
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(ones.Quantile(q), 1.0) << "q=" << q;
  }
  const Histogram::Summary summary = ones.Snapshot();
  EXPECT_DOUBLE_EQ(summary.p50, 1.0);
  EXPECT_DOUBLE_EQ(summary.p99, 1.0);
  EXPECT_LE(summary.p50, summary.max);
  EXPECT_LE(summary.p99, summary.max);

  // Same family at the zero bucket: all-zero samples sit in [0, 1) with
  // max == lower == 0; quantiles must report 0, not 0.5.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Record(0.0);
  for (double q : {0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(zeros.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileInterpolatesInsideBucket) {
  SKIP_IF_OBS_DISABLED();
  // 150 samples at 1.5 (bucket [1,2)) and 50 at 100 (bucket [64,128),
  // clamped to 100): p50 (rank 100.5) lands in the first bucket, p90
  // (rank 180.1) and p99 in the second.
  Histogram histogram;
  for (int i = 0; i < 150; ++i) histogram.Record(1.5);
  for (int i = 0; i < 50; ++i) histogram.Record(100.0);
  const Histogram::Summary summary = histogram.Snapshot();
  EXPECT_EQ(summary.count, 200u);
  EXPECT_GE(summary.p50, 1.0);
  EXPECT_LT(summary.p50, 2.0);
  EXPECT_GE(summary.p90, 64.0);
  EXPECT_LE(summary.p90, 100.0);
  EXPECT_GE(summary.p99, 64.0);
  EXPECT_LE(summary.p99, 100.0);
  // Quantiles are monotone in q.
  EXPECT_LE(summary.p50, summary.p90);
  EXPECT_LE(summary.p90, summary.p99);
  EXPECT_LE(summary.p99, summary.max);
}

TEST(HistogramTest, ResetClearsEverything) {
  SKIP_IF_OBS_DISABLED();
  Histogram histogram;
  histogram.Record(50.0);
  histogram.Reset();
  const Histogram::Summary summary = histogram.Snapshot();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.sum, 0.0);
  EXPECT_EQ(summary.max, 0.0);
}

TEST(MetricRegistryTest, GetReturnsStableReferences) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.GetGauge("test.gauge");
  Gauge& g2 = registry.GetGauge("test.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.GetHistogram("test.histogram");
  Histogram& h2 = registry.GetHistogram("test.histogram");
  EXPECT_EQ(&h1, &h2);
  // Same name, different kind: independent instruments.
  EXPECT_NE(static_cast<void*>(&a), static_cast<void*>(&g1));
}

TEST(MetricRegistryTest, ValuesAreSortedByName) {
  SKIP_IF_OBS_DISABLED();
  MetricRegistry registry;
  registry.GetCounter("zebra").Add(1);
  registry.GetCounter("alpha").Add(2);
  registry.GetCounter("mid").Add(3);
  const auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[0].second, 2u);
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zebra");
}

TEST(MetricRegistryTest, ResetAllZeroesButKeepsNames) {
  SKIP_IF_OBS_DISABLED();
  MetricRegistry registry;
  registry.GetCounter("c").Add(7);
  registry.GetGauge("g").Set(7.0);
  registry.GetHistogram("h").Record(7.0);
  registry.ResetAll();
  EXPECT_EQ(registry.CounterValues().size(), 1u);
  EXPECT_EQ(registry.CounterValues()[0].second, 0u);
  EXPECT_EQ(registry.GaugeValues()[0].second, 0.0);
  EXPECT_EQ(registry.HistogramValues()[0].second.count, 0u);
}

TEST(ThreadIdTest, DenseAndStablePerThread) {
  const std::uint32_t mine = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), mine);  // stable on repeat calls
  std::uint32_t other = mine;
  std::thread([&other] { other = CurrentThreadId(); }).join();
  EXPECT_NE(other, mine);
  // The exited thread's id goes to the next thread.
  std::uint32_t next = mine;
  std::thread([&next] { next = CurrentThreadId(); }).join();
  EXPECT_EQ(next, other);
}

}  // namespace
}  // namespace tsc::obs
