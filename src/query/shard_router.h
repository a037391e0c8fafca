#ifndef TSC_QUERY_SHARD_ROUTER_H_
#define TSC_QUERY_SHARD_ROUTER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/sharded_store.h"
#include "cube/rollup.h"
#include "query/parser.h"

namespace tsc {

class ThreadPool;

/// Scatter-gather aggregate execution over a ShardedStore: translates
/// global row selections into per-shard local selections, runs each
/// shard's compressed-domain / rollup math against that shard's own
/// factors and AggregateHierarchy, and merges the partials in fixed
/// shard order — so results are bit-identical at any thread count (the
/// PR 3 scan contract) and exactly the ordered-sum of the per-shard
/// answers.
///
/// Each shard gets its own hierarchy, registered as that shard model's
/// delta listener: a PatchCell routed by the ShardedStore keeps exactly
/// one shard's rollup fresh in O(log rows_s), and a FoldInRows marks
/// only the grown shards stale.
///
/// The store must outlive the router and not move.
class ShardRouter {
 public:
  /// `enable_rollup` builds one AggregateHierarchy per shard (skipped
  /// when any shard has k == 0, or under TSC_NO_ROLLUP — the same
  /// switches the unsharded executor honors).
  explicit ShardRouter(const ShardedStore* store, bool enable_rollup = true);

  const ShardedStore& store() const { return *store_; }
  std::size_t shard_count() const { return store_->shard_count(); }

  /// Whether per-shard hierarchies exist (the planner's
  /// `rollup_available`).
  bool rollup_enabled() const { return !hierarchies_.empty(); }

  /// Largest shard k — the planner's `model_k` gate for compressed-
  /// domain strategies.
  std::size_t model_k() const;

  /// One shard's hierarchy (null when rollup is disabled).
  const AggregateHierarchy* shard_rollup(std::size_t shard) const {
    return hierarchies_.empty() ? nullptr : hierarchies_[shard].get();
  }

  /// Region sum over global (row runs x col runs): per-shard RegionSum
  /// partials merged in shard order. Requires rollup_enabled().
  double RegionSum(std::span<const IdRange> row_runs,
                   std::span<const IdRange> col_runs,
                   RollupStats* stats) const;

  /// Per-group sums of the selected region — the sharded counterpart of
  /// the executor's compressed-domain math. `row_ids`/`col_ids` are
  /// sorted global selections; the result is indexed exactly like the
  /// unsharded path (one total, or one slot per selected row/col).
  /// Deltas fold through each shard's hierarchy when rollup is enabled,
  /// and through a per-shard delta-table sweep otherwise.
  std::vector<double> GroupedSums(const std::vector<std::size_t>& row_ids,
                                  const std::vector<std::size_t>& col_ids,
                                  GroupBy group_by, RollupStats* stats) const;

  /// Translates global row runs into per-shard local runs (sorted and
  /// disjoint per shard; exposed for tests).
  std::vector<std::vector<IdRange>> PartitionRowRuns(
      std::span<const IdRange> row_runs) const;

  /// Fans per-shard aggregate work out on an internal pool (0/1
  /// disables). Partials are stored per shard and merged in shard order
  /// afterwards, so results are identical to the serial loop.
  void EnableParallelFanOut(std::size_t num_threads);

 private:
  /// Runs fn(shard) for all shards, on the fan-out pool when free
  /// (overlapping calls fall back to serial). fn writes only its own
  /// shard's partial slots.
  void ForEachShard(const std::function<void(std::size_t)>& fn) const;

  const ShardedStore* store_;
  std::vector<std::shared_ptr<AggregateHierarchy>> hierarchies_;
  std::shared_ptr<ThreadPool> fan_out_pool_;
  std::shared_ptr<std::mutex> fan_out_mutex_ = std::make_shared<std::mutex>();
};

}  // namespace tsc

#endif  // TSC_QUERY_SHARD_ROUTER_H_
