// The ablation hash table under concurrent readers: run under the
// ThreadSanitizer preset (ctest -L tsan) to prove the probe counter is
// race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "lib/ablation/delta_table.h"

namespace tsc {
namespace {

TEST(ConcurrencyTest, DeltaTableConcurrentReads) {
  // Get() is const but counts probes; with a plain counter this test is a
  // data race (the original bug). With the relaxed atomic every lookup is
  // counted and TSan stays quiet.
  DeltaTable table(256);
  for (std::uint64_t key = 0; key < 256; key += 2) {
    table.Put(key, static_cast<double>(key) * 0.5);
  }
  table.ResetProbeCount();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 1000; ++round) {
        const std::uint64_t key = static_cast<std::uint64_t>(round % 256);
        const auto value = table.Get(key);
        const bool want_present = key % 2 == 0;
        if (value.has_value() != want_present ||
            (want_present && *value != static_cast<double>(key) * 0.5)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every Get probes at least one slot, and none may be lost.
  EXPECT_GE(table.probe_count(), 4u * 1000u);
}

}  // namespace
}  // namespace tsc
