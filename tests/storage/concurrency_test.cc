// Threaded smoke tests for the storage structures the parallel build and
// concurrent query paths share. These are the targets of the `tsan`
// ctest label: run them under the ThreadSanitizer preset
// (cmake --preset tsan) to prove the fixes, not just exercise them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "storage/block_cache.h"
#include "util/thread_pool.h"

namespace tsc {
namespace {

TEST(ConcurrencyTest, BlockCacheConcurrentGets) {
  // Readers hammer a cache far smaller than the key range, forcing
  // constant eviction while other threads still hold handles.
  BlockCache cache(8, 32);
  const auto fetch = [](std::uint64_t id, BlockCache::Block* data) {
    std::fill(data->begin(), data->end(),
              static_cast<std::uint8_t>(id & 0xff));
    return Status::Ok();
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 500; ++round) {
        const std::uint64_t id =
            static_cast<std::uint64_t>((round * 7 + t * 13) % 64);
        const auto handle = cache.Get(id, fetch);
        if (!handle.ok() || (**handle)[0] != (id & 0xff) ||
            (**handle)[31] != (id & 0xff)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 500u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ConcurrencyTest, ShardedBlockCacheHammer) {
  // Many-shard cache under heavy mixed load: hits, misses on distinct and
  // identical blocks, evictions, and invalidations all racing. The fetch
  // callback sleeps a little so concurrent misses actually overlap; under
  // TSan this exercises the in-flight dedup handshake end to end.
  BlockCache cache(128, 32, /*shards=*/8);
  ASSERT_EQ(cache.shard_count(), 8u);
  std::atomic<int> fetches{0};
  const auto fetch = [&](std::uint64_t id, BlockCache::Block* data) {
    fetches.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::fill(data->begin(), data->end(),
              static_cast<std::uint8_t>(id & 0xff));
    return Status::Ok();
  };

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Key range (512) >> capacity (128) forces steady eviction; the
        // skewed stride makes threads collide on hot blocks.
        const std::uint64_t id =
            static_cast<std::uint64_t>((round * 3 + t) % 512);
        const auto handle = cache.Get(id, fetch);
        if (!handle.ok() || (**handle)[0] != (id & 0xff) ||
            (**handle)[31] != (id & 0xff)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && round % 64 == 0) {
          cache.Invalidate(static_cast<std::uint64_t>(round));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Dedup rides along on in-flight fetches, so the fetch count can be
  // lower than the miss count but never higher.
  EXPECT_LE(fetches.load(), static_cast<int>(cache.misses()));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ConcurrencyTest, ParallelForStress) {
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(4096);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20u);
}

}  // namespace
}  // namespace tsc
