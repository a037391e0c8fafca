#ifndef TSC_STORAGE_BLOCK_CACHE_H_
#define TSC_STORAGE_BLOCK_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace tsc {

/// Fixed-capacity LRU cache of disk blocks — the buffer pool in front of
/// the row store. A query-serving deployment keeps V, the eigenvalues
/// and the delta index pinned; the U rows stream through this cache, so
/// repeated access to hot sequences (skewed, Zipf-like workloads are the
/// norm per Appendix A) costs no disk reads.
///
/// Thread safety: the cache is sharded into independently locked LRU
/// shards keyed by block id, so concurrent readers scale across cores.
/// The fetch callback runs OUTSIDE any cache lock; concurrent misses on
/// distinct blocks fetch in parallel, and concurrent misses on the same
/// block are deduplicated — one caller fetches, the rest wait for its
/// result. The callback must not call back into the cache.
class BlockCache {
 public:
  using Block = std::vector<std::uint8_t>;

  /// Pinned, immutable reference to a cached block. Eviction only drops
  /// the cache's own reference: a Handle returned by Get() stays valid
  /// for as long as the caller holds it, no matter how many blocks are
  /// read (or evicted) in between.
  using Handle = std::shared_ptr<const Block>;

  /// `capacity_blocks` blocks of `block_size` bytes each, spread over
  /// `shards` independently locked LRU shards. `shards` is rounded down
  /// to a power of two; 0 picks automatically — the largest power of two
  /// <= min(16, capacity_blocks / 8) — so small caches keep a single
  /// shard and therefore exact global LRU semantics.
  BlockCache(std::size_t capacity_blocks, std::size_t block_size,
             std::size_t shards = 0);

  using FetchFn = std::function<Status(std::uint64_t block_id, Block*)>;

  /// Returns a pinned handle to the cached block, fetching through
  /// `fetch` on a miss. Waiting on another caller's in-flight fetch of
  /// the same block counts as a hit (no I/O was issued).
  StatusOr<Handle> Get(std::uint64_t block_id, const FetchFn& fetch);

  /// Drops one block (e.g. after an off-line batch update touched it).
  /// An in-flight fetch of that block is still handed to its waiters but
  /// not installed, so no stale block can enter the cache.
  void Invalidate(std::uint64_t block_id);
  /// Drops everything.
  void Clear();

  std::size_t capacity_blocks() const { return capacity_blocks_; }
  std::size_t block_size() const { return block_size_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t cached_blocks() const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  double HitRate() const;
  void ResetStats();

 private:
  struct Entry {
    std::uint64_t block_id;
    std::shared_ptr<const Block> data;
  };

  /// One caller fetches; everyone else blocks on `cv` until `done`.
  /// `invalidated` is guarded by the owning shard's mutex and tells the
  /// fetcher not to install the result.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool invalidated = false;
    Status status = Status::Ok();
    Handle handle;
  };

  struct Shard {
    std::size_t capacity = 0;
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> entries;
    std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> in_flight;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(std::uint64_t block_id);
  const Shard& ShardFor(std::uint64_t block_id) const;
  /// Installs `handle` in `shard` (assumes the caller holds shard.mu) and
  /// evicts the shard's LRU entry if it is at capacity.
  void InstallLocked(Shard& shard, std::uint64_t block_id,
                     const Handle& handle);

  std::size_t capacity_blocks_;
  std::size_t block_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;
};

}  // namespace tsc

#endif  // TSC_STORAGE_BLOCK_CACHE_H_
