// Threaded hammer over the metric primitives and the registry, run under
// ThreadSanitizer by the tsan preset (ctest -L tsan). Proves the sharded
// counter, the CAS loops in Gauge/Histogram, the registry's create-on-use
// map, and the trace ring buffer are race-free under real contention —
// not merely that single-threaded results look right.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace tsc::obs {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 20'000;

TEST(ObsConcurrencyTest, RegistryHammer) {
  MetricRegistry registry;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Per-thread and shared names interleave, so the map sees
      // concurrent inserts and lookups while instruments take writes.
      Counter& shared = registry.GetCounter("hammer.shared");
      Counter& mine =
          registry.GetCounter("hammer.thread." + std::to_string(t));
      Gauge& gauge = registry.GetGauge("hammer.gauge");
      Histogram& histogram = registry.GetHistogram("hammer.latency");
      for (int i = 0; i < kIterations; ++i) {
        shared.Increment();
        mine.Increment();
        gauge.Set(static_cast<double>(i));
        histogram.Record(static_cast<double>(i % 1024));
        if (i % 4096 == 0) {
          // Concurrent readers against live writers.
          (void)shared.Value();
          (void)histogram.Quantile(0.5);
          (void)registry.CounterValues();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

#ifndef TSC_OBS_DISABLED
  // <= kSlots live threads means no shard collisions: exact totals.
  EXPECT_EQ(registry.GetCounter("hammer.shared").Value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        registry.GetCounter("hammer.thread." + std::to_string(t)).Value(),
        static_cast<std::uint64_t>(kIterations));
  }
  // Every thread's last write is the same value.
  EXPECT_EQ(registry.GetGauge("hammer.gauge").Value(),
            static_cast<double>(kIterations - 1));
  EXPECT_EQ(registry.GetHistogram("hammer.latency").Count(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
#endif
}

TEST(ObsConcurrencyTest, SnapshotWhileWriting) {
  MetricRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads / 2; ++t) {
    writers.emplace_back([&registry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        registry.GetCounter("snap.counter").Increment();
        registry.GetHistogram("snap.histogram").Record(3.0);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const StatsSnapshot snapshot = TakeSnapshot(registry);
    (void)snapshot.ToTable();
    (void)snapshot.ToJson();
  }
  registry.ResetAll();  // reset races against live writers, by design
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : writers) thread.join();
}

TEST(ObsConcurrencyTest, TraceSpansAcrossThreads) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.Enable(/*capacity=*/1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 500; ++i) {
        TraceSpan outer("worker", static_cast<std::size_t>(t));
        TraceSpan inner("step");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  recorder.Disable();

#ifndef TSC_OBS_DISABLED
  const std::size_t recorded = recorder.Events().size();
  EXPECT_EQ(recorded + recorder.dropped_events(),
            static_cast<std::uint64_t>(kThreads) * 500 * 2);
  EXPECT_LE(recorded, 1024u);
#endif
  recorder.Clear();
}

}  // namespace
}  // namespace tsc::obs
