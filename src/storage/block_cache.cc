#include "storage/block_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "util/logging.h"

namespace tsc {
namespace {

// Process-wide cache instruments, shared by every BlockCache instance.
// References are stable for the process lifetime (registry never deletes),
// so the map lookup happens once.
struct CacheMetrics {
  obs::Counter& hits =
      obs::MetricRegistry::Default().GetCounter("block_cache.hits");
  obs::Counter& misses =
      obs::MetricRegistry::Default().GetCounter("block_cache.misses");
};

CacheMetrics& Metrics() {
  static CacheMetrics* metrics = new CacheMetrics();
  return *metrics;
}

std::size_t FloorPow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// SplitMix64 finalizer: block ids are often sequential, so spread them
/// across shards with a real mix instead of low-bit masking.
std::uint64_t MixBlockId(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

BlockCache::BlockCache(std::size_t capacity_blocks, std::size_t block_size,
                       std::size_t shards)
    : capacity_blocks_(capacity_blocks), block_size_(block_size) {
  TSC_CHECK_GT(capacity_blocks, 0u);
  TSC_CHECK_GT(block_size, 0u);
  std::size_t count;
  if (shards == 0) {
    // Auto: keep at least 8 blocks per shard so tiny caches stay single
    // shard (exact global LRU, which the eviction-order tests rely on).
    count = FloorPow2(std::max<std::size_t>(1, std::min<std::size_t>(
                                                   16, capacity_blocks / 8)));
  } else {
    count = FloorPow2(std::min(shards, capacity_blocks));
  }
  shard_mask_ = count - 1;
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = capacity_blocks / count +
                      (s < capacity_blocks % count ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

BlockCache::Shard& BlockCache::ShardFor(std::uint64_t block_id) {
  if (shard_mask_ == 0) return *shards_[0];
  return *shards_[MixBlockId(block_id) & shard_mask_];
}

const BlockCache::Shard& BlockCache::ShardFor(std::uint64_t block_id) const {
  if (shard_mask_ == 0) return *shards_[0];
  return *shards_[MixBlockId(block_id) & shard_mask_];
}

void BlockCache::InstallLocked(Shard& shard, std::uint64_t block_id,
                               const Handle& handle) {
  if (shard.entries.size() >= shard.capacity) {
    // Evict the shard's LRU entry. Any Handle still pointing at the
    // victim keeps its bytes alive; only the cache's reference is
    // dropped.
    shard.entries.erase(shard.lru.back().block_id);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{block_id, handle});
  shard.entries[block_id] = shard.lru.begin();
}

StatusOr<BlockCache::Handle> BlockCache::Get(std::uint64_t block_id,
                                             const FetchFn& fetch) {
  Shard& shard = ShardFor(block_id);
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(block_id);
    if (it != shard.entries.end()) {
      ++shard.hits;
      Metrics().hits.Increment();
      obs::ChargeCacheHit();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->data;
    }
    const auto fit = shard.in_flight.find(block_id);
    if (fit != shard.in_flight.end()) {
      // Another caller is already fetching this block; ride along. No
      // I/O is issued on this path, so it counts as a hit.
      flight = fit->second;
      ++shard.hits;
      Metrics().hits.Increment();
      obs::ChargeCacheHit();
    } else {
      flight = std::make_shared<InFlight>();
      shard.in_flight.emplace(block_id, flight);
      owner = true;
      ++shard.misses;
      Metrics().misses.Increment();
      obs::ChargeCacheMiss();
    }
  }

  if (!owner) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->status.ok()) return flight->status;
    return flight->handle;
  }

  // Owner path: fetch with no cache lock held, so misses on other blocks
  // (and hits everywhere) proceed in parallel.
  auto block = std::make_shared<Block>(block_size_);
  const Status status = fetch(block_id, block.get());
  Handle handle;
  if (status.ok()) handle = std::move(block);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.in_flight.erase(block_id);
    // Install unless Invalidate()/Clear() raced with the fetch (the
    // waiters still get the bytes; the cache just forgets them) or some
    // later fetch already installed the block.
    if (status.ok() && !flight->invalidated &&
        shard.entries.find(block_id) == shard.entries.end()) {
      InstallLocked(shard, block_id, handle);
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = status;
    flight->handle = handle;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (!status.ok()) return status;
  return handle;
}

void BlockCache::Invalidate(std::uint64_t block_id) {
  Shard& shard = ShardFor(block_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto fit = shard.in_flight.find(block_id);
  if (fit != shard.in_flight.end()) fit->second->invalidated = true;
  const auto it = shard.entries.find(block_id);
  if (it == shard.entries.end()) return;
  shard.lru.erase(it->second);
  shard.entries.erase(it);
}

void BlockCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, flight] : shard->in_flight) flight->invalidated = true;
    shard->lru.clear();
    shard->entries.clear();
  }
}

std::size_t BlockCache::cached_blocks() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

std::uint64_t BlockCache::hits() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

std::uint64_t BlockCache::misses() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

std::uint64_t BlockCache::evictions() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->evictions;
  }
  return total;
}

double BlockCache::HitRate() const {
  const std::uint64_t h = hits();
  const std::uint64_t total = h + misses();
  return total == 0 ? 0.0 : static_cast<double>(h) / total;
}

void BlockCache::ResetStats() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
  }
}

}  // namespace tsc
