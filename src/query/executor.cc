#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "cube/rollup.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace tsc {
namespace {

/// Fixed shard count for parallel scans. Like kBuildShards, this is a
/// constant — NOT the thread count — so the accumulation grouping, and
/// therefore every low-order bit of the result, is the same whether the
/// shards run on 1 thread or 16.
constexpr std::size_t kQueryShards = 16;

/// Rows reconstructed per ReconstructRegion call inside a shard: large
/// enough to amortize the batched gathers, small enough to keep the
/// per-shard scratch block in cache.
constexpr std::size_t kScanBlockRows = 32;

/// Selected rows per scan window: one block for each shard.
constexpr std::size_t kScanWindowRows = kQueryShards * kScanBlockRows;

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Per-group accumulator: count, min and max always, the streaming
/// moments unless every aggregate is min, max or count, and buffered
/// values only when an order statistic (median) is requested.
struct GroupAcc {
  RunningStats stats;
  std::vector<double> values;
};

/// Finalizes one aggregate from per-group statistics.
double Finalize(AggregateFn fn, const GroupAcc& acc) {
  const RunningStats& stats = acc.stats;
  switch (fn) {
    case AggregateFn::kSum:
      return stats.sum();
    case AggregateFn::kAvg:
      return stats.mean();
    case AggregateFn::kCount:
      return static_cast<double>(stats.count());
    case AggregateFn::kMin:
      return stats.count() == 0 ? 0.0 : stats.min();
    case AggregateFn::kMax:
      return stats.count() == 0 ? 0.0 : stats.max();
    case AggregateFn::kStddev:
      return stats.stddev();
    case AggregateFn::kMedian:
      return acc.values.empty() ? 0.0 : Quantiles(acc.values).Median();
  }
  return 0.0;
}

bool NeedsValueBuffer(const QueryPlan& plan) {
  for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
    if (plan.aggregates[a] == AggregateFn::kMedian &&
        plan.strategies[a] == ExecutionStrategy::kRowReconstruction) {
      return true;
    }
  }
  return false;
}

/// True when every aggregate the scan accumulates reads only its
/// group's count, min and max.
bool NeedsOnlyCountMinMax(const QueryPlan& plan) {
  for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
    const AggregateFn fn = plan.aggregates[a];
    if (plan.strategies[a] == ExecutionStrategy::kRowReconstruction &&
        fn != AggregateFn::kMin && fn != AggregateFn::kMax &&
        fn != AggregateFn::kCount) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> GroupKeysFor(const QueryPlan& plan) {
  switch (plan.group_by) {
    case GroupBy::kRow:
      return ExpandRanges(plan.row_runs);
    case GroupBy::kCol:
      return ExpandRanges(plan.col_runs);
    case GroupBy::kNone:
      return {};
  }
  return {};
}

bool IsLinearAggregate(AggregateFn fn) {
  return fn == AggregateFn::kSum || fn == AggregateFn::kAvg ||
         fn == AggregateFn::kCount;
}

/// Per-group sums of the selected region, straight from the factors:
/// no grouping -> the view's region sum; by row -> dot(u_i, w) per row,
/// w the selected Lambda-weighted V rows' sum; by col -> dot(u_mass,
/// lambda.v_j) per column, u_mass the selected rows' U mass from the
/// block sums. The deltas inside the region come from the domain's delta
/// index: per-row sums over its row CSR, per-column and total sums from
/// its column-sum checkpoints and row CSR. The runs are the plan's (sorted, disjoint).
/// On the disk layout a failed U-row read is the error.
StatusOr<std::vector<double>> CompressedDomainSums(
    const SvddModel& domain, const AggregateHierarchy& view,
    std::span<const IdRange> row_runs, std::span<const IdRange> col_runs,
    GroupBy group_by, RollupStats* stats) {
  if (group_by == GroupBy::kNone) {
    TSC_ASSIGN_OR_RETURN(const double sum,
                         view.RegionSum(row_runs, col_runs, stats));
    return std::vector<double>{sum};
  }
  const std::size_t k = domain.k();
  const Matrix& weighted_v = domain.weighted_v();
  const std::shared_ptr<const DeltaIndex> deltas = domain.deltas();
  std::vector<double> sums;
  if (group_by == GroupBy::kCol) {
    std::vector<double> u_mass(k, 0.0);
    TSC_ASSIGN_OR_RETURN(const std::uint64_t reads,
                         domain.AccumulateRowMass(row_runs, u_mass));
    if (stats != nullptr) stats->nodes_read += reads;
    sums.reserve(RangesSize(col_runs));
    ForEachId(col_runs, [&](std::size_t j) {
      sums.push_back(kernels::Dot(u_mass.data(), weighted_v.Row(j).data(), k));
    });
    deltas->AddColumnSums(row_runs, col_runs, sums);
    return sums;
  }
  std::vector<double> weights(k, 0.0);
  ForEachId(col_runs, [&](std::size_t j) {
    kernels::Axpy(1.0, weighted_v.Row(j).data(), weights.data(), k);
  });
  sums.reserve(RangesSize(row_runs));
  TSC_RETURN_IF_ERROR(domain.AppendRowDots(row_runs, weights, &sums));
  deltas->AddRowSums(row_runs, col_runs, sums);
  return sums;
}

/// Shared finalization: per-group statistics -> flat result values for
/// the row-reconstruction strategy, compressed-domain sums for the rest.
class ResultBuilder {
 public:
  ResultBuilder(const QueryPlan& plan, const SvddModel* domain,
                const AggregateHierarchy* view = nullptr,
                RollupStats* stats = nullptr)
      : plan_(plan), domain_(domain), view_(view), stats_(stats) {}

  /// Per-group cell count (for count/avg in the compressed domain).
  std::size_t GroupCells() const {
    switch (plan_.group_by) {
      case GroupBy::kRow:
        return plan_.ColCount();
      case GroupBy::kCol:
        return plan_.RowCount();
      case GroupBy::kNone:
        return plan_.CellCount();
    }
    return 0;
  }

  /// `extremes[a]` holds the per-group answers of aggregate a when it
  /// ran by block bound (empty otherwise, or altogether).
  StatusOr<QueryResult> Build(
      const std::vector<GroupAcc>& group_stats,
      std::uint64_t rows_reconstructed,
      const std::vector<std::vector<double>>& extremes = {}) const {
    QueryResult result;
    result.plan_text = plan_.ToString();
    result.group_keys = GroupKeysFor(plan_);
    result.aggregate_count = plan_.aggregates.size();
    result.rows_reconstructed = rows_reconstructed;
    const std::size_t groups = plan_.GroupCount();
    result.values.assign(groups * plan_.aggregates.size(), 0.0);

    std::vector<double> sums;  // lazily computed compressed-domain sums
    for (std::size_t a = 0; a < plan_.aggregates.size(); ++a) {
      const AggregateFn fn = plan_.aggregates[a];
      const ExecutionStrategy strategy = plan_.strategies[a];
      if (!result.strategy_summary.empty()) result.strategy_summary += " ";
      result.strategy_summary += AggregateFnName(fn);
      result.strategy_summary += "=";
      result.strategy_summary += ExecutionStrategyName(strategy);
      if (strategy == ExecutionStrategy::kCompressedDomain) {
        if (domain_ == nullptr || view_ == nullptr) {
          return Status::Internal(
              "compressed-domain plan without a compressed domain");
        }
        ++result.compressed_domain_aggregates;
        if (sums.empty() && fn != AggregateFn::kCount) {
          TSC_ASSIGN_OR_RETURN(
              sums, CompressedDomainSums(*domain_, *view_, plan_.row_runs,
                                         plan_.col_runs, plan_.group_by,
                                         stats_));
        }
        for (std::size_t g = 0; g < groups; ++g) {
          double value = 0.0;
          switch (fn) {
            case AggregateFn::kCount:
              value = static_cast<double>(GroupCells());
              break;
            case AggregateFn::kSum:
              value = sums[g];
              break;
            case AggregateFn::kAvg:
              value = sums[g] / static_cast<double>(GroupCells());
              break;
            default:
              return Status::Internal("non-linear fn planned compressed");
          }
          result.values[g * result.aggregate_count + a] = value;
        }
        continue;
      }
      if (strategy == ExecutionStrategy::kBlockBound) {
        if (a >= extremes.size() || extremes[a].size() != groups) {
          return Status::Internal("block-bound plan without its answers");
        }
        for (std::size_t g = 0; g < groups; ++g) {
          result.values[g * result.aggregate_count + a] = extremes[a][g];
        }
        continue;
      }
      TSC_CHECK_EQ(group_stats.size(), groups);
      for (std::size_t g = 0; g < groups; ++g) {
        result.values[g * result.aggregate_count + a] =
            Finalize(fn, group_stats[g]);
      }
    }
    return result;
  }

 private:
  const QueryPlan& plan_;
  const SvddModel* domain_;
  const AggregateHierarchy* view_;
  RollupStats* stats_;
};

/// Calls fn(first, ids) for each window of up to kScanWindowRows
/// consecutive selected ids, where `first` is the position of ids[0] in
/// the selection. Holds one window of ids at a time.
template <typename Fn>
void ForEachWindow(std::span<const IdRange> runs, Fn&& fn) {
  std::vector<std::size_t> ids;
  ids.reserve(kScanWindowRows);
  std::size_t first = 0;
  ForEachId(runs, [&](std::size_t id) {
    ids.push_back(id);
    if (ids.size() < kScanWindowRows) return;
    fn(first, std::span<const std::size_t>(ids));
    first += ids.size();
    ids.clear();
  });
  if (!ids.empty()) fn(first, std::span<const std::size_t>(ids));
}

/// Batched, sharded scan for the row-reconstruction strategy. The
/// selection is walked in windows of kScanWindowRows selected rows; the
/// window's rows at positions s, s + kQueryShards, ... form shard s's
/// block, which is reconstructed in one ReconstructRegion call (only the
/// selected columns are materialized) and accumulated into the shard's
/// own per-group statistics. Shard partials are merged in shard order.
///
/// Each shard sees the same blocks in the same order whether the shards
/// run on a pool (each walking every window) or inline, where one pass
/// flushes every shard's block of a window before moving on, so each U
/// block is fetched once however small the block cache. The result is
/// therefore bit-identical for every thread count. A failed
/// reconstruction (a U-row read on disk) stops its shard and is the
/// error; with several, the lowest shard's.
StatusOr<std::vector<GroupAcc>> ScanGroupsBatched(const QueryPlan& plan,
                                                  const CompressedStore& store,
                                                  ThreadPool* pool,
                                                  std::uint64_t* rows_scanned) {
  obs::TraceSpan span("query.scan");
  const bool keep_values = NeedsValueBuffer(plan);
  const bool count_min_max = NeedsOnlyCountMinMax(plan);
  const std::size_t groups = plan.GroupCount();
  const std::vector<std::size_t> col_ids = ExpandRanges(plan.col_runs);
  std::vector<std::vector<GroupAcc>> shard_accs(
      kQueryShards, std::vector<GroupAcc>(groups));

  // Reconstructs and accumulates shard `shard`'s block of the window
  // `ids`, whose first row is the `first`-th of the selection. `block`
  // and `rows` are the calling thread's scratch.
  const auto scan_block = [&](std::size_t shard, std::size_t first,
                              std::span<const std::size_t> ids, Matrix* block,
                              std::vector<std::size_t>* rows) {
    rows->clear();
    for (std::size_t b = shard; b < ids.size(); b += kQueryShards) {
      rows->push_back(ids[b]);
    }
    if (rows->empty()) return Status::Ok();
    TSC_RETURN_IF_ERROR(store.ReconstructRegion(*rows, col_ids, block));
    std::vector<GroupAcc>& accs = shard_accs[shard];
    for (std::size_t b = 0; b < rows->size(); ++b) {
      const std::span<const double> vals = block->Row(b);
      for (std::size_t c = 0; c < col_ids.size(); ++c) {
        std::size_t g = 0;
        switch (plan.group_by) {
          case GroupBy::kRow:
            g = first + shard + b * kQueryShards;
            break;
          case GroupBy::kCol:
            g = c;
            break;
          case GroupBy::kNone:
            g = 0;
            break;
        }
        if (count_min_max) {
          accs[g].stats.AddCountMinMax(vals[c]);
        } else {
          accs[g].stats.Add(vals[c]);
        }
        if (keep_values) accs[g].values.push_back(vals[c]);
      }
    }
    return Status::Ok();
  };
  // Per shard, its first failure; a failed shard skips its later blocks.
  std::vector<Status> shard_status(kQueryShards);
  const auto run_block = [&](std::size_t shard, std::size_t first,
                             std::span<const std::size_t> ids, Matrix* block,
                             std::vector<std::size_t>* rows) {
    if (shard_status[shard].ok()) {
      shard_status[shard] = scan_block(shard, first, ids, block, rows);
    }
  };
  if (pool == nullptr) {
    Matrix block;
    std::vector<std::size_t> rows;
    ForEachWindow(plan.row_runs, [&](std::size_t first,
                                     std::span<const std::size_t> ids) {
      for (std::size_t shard = 0; shard < kQueryShards; ++shard) {
        run_block(shard, first, ids, &block, &rows);
      }
    });
  } else {
    // Shards run on pool threads: re-install the requesting thread's
    // QueryContext so cache/disk/delta work stays attributed per request.
    obs::QueryContext* request_context = obs::CurrentQueryContext();
    ParallelFor(pool, kQueryShards, [&](std::size_t shard) {
      obs::ScopedQueryContext context_scope(request_context);
      obs::TraceSpan shard_span("query.scan.shard", shard);
      Matrix block;
      std::vector<std::size_t> rows;
      ForEachWindow(plan.row_runs, [&](std::size_t first,
                                       std::span<const std::size_t> ids) {
        run_block(shard, first, ids, &block, &rows);
      });
    });
  }
  for (const Status& status : shard_status) TSC_RETURN_IF_ERROR(status);
  *rows_scanned += plan.RowCount();
  // Ordered reduction: shard 0, shard 1, ... — the merge order is part of
  // the determinism contract.
  std::vector<GroupAcc> accs(groups);
  for (std::size_t shard = 0; shard < kQueryShards; ++shard) {
    for (std::size_t g = 0; g < groups; ++g) {
      accs[g].stats.Merge(shard_accs[shard][g].stats);
      if (keep_values) {
        accs[g].values.insert(accs[g].values.end(),
                              shard_accs[shard][g].values.begin(),
                              shard_accs[shard][g].values.end());
      }
    }
  }
  return accs;
}

/// What the block-bound searches of one query reconstructed.
struct BlockBoundWork {
  std::uint64_t rows = 0;  ///< by the searches and their zero rescans
  std::uint64_t cells = 0;  ///< by the searches
  std::uint64_t blocks = 0;  ///< blocks the searches reconstructed
  std::uint64_t blocks_total = 0;  ///< blocks their selections span
};

/// A 64-row block the selection reaches into, and the first row run
/// that does.
struct SelectedBlock {
  std::size_t block = 0;
  std::size_t first_run = 0;
};

std::vector<SelectedBlock> SelectedBlocks(std::span<const IdRange> runs) {
  constexpr std::size_t kRowBlock = RowBlockSums::kRowBlock;
  std::vector<SelectedBlock> blocks;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t b = runs[r].lo / kRowBlock; b <= runs[r].hi / kRowBlock;
         ++b) {
      if (blocks.empty() || blocks.back().block != b) blocks.push_back({b, r});
    }
  }
  return blocks;
}

/// Calls fn(stretch) for each run's part inside `selected`'s block,
/// ascending.
template <typename Fn>
void ForEachBlockStretch(std::span<const IdRange> runs,
                         const SelectedBlock& selected, Fn&& fn) {
  constexpr std::size_t kRowBlock = RowBlockSums::kRowBlock;
  const std::size_t lo = selected.block * kRowBlock;
  const std::size_t hi = lo + kRowBlock - 1;
  for (std::size_t r = selected.first_run;
       r < runs.size() && runs[r].lo <= hi; ++r) {
    fn(IdRange{std::max(runs[r].lo, lo), std::min(runs[r].hi, hi)});
  }
}

/// The selected rows of `selected`'s block, ascending, into `*rows`.
void SelectedBlockRows(std::span<const IdRange> runs,
                       const SelectedBlock& selected,
                       std::vector<std::size_t>* rows) {
  rows->clear();
  ForEachBlockStretch(runs, selected, [rows](IdRange stretch) {
    for (std::size_t i = stretch.lo; i <= stretch.hi; ++i) rows->push_back(i);
  });
}

/// Answers `fn` (min or max) per group of `plan` (grouped by column or
/// not at all) by branch and bound over U's 64-row block boxes, on the
/// calling thread. The search's sign turns min into a max of -x.
///   1. A walk over each selected block's stretch of the row CSR, all
///      from one snapshot, keeps for each (block, selected column) the
///      largest signed delta, or 0: a cell whose delta is not above it
///      stays under the SVD bound.
///   2. Each (block, column) is bounded by the block box's bound
///      (RowBlockSums::BoxBounds, with its rounding allowance) plus
///      that delta.
///      Round-to-nearest is monotone, so the computed sum bounds the
///      cell's svd + delta as ReconstructRegion adds it; no allowance is
///      needed for that addition.
///   3. Blocks are visited in descending order of their largest bound;
///      each reconstructs block x selection over the columns whose bound
///      is not below their group's running best, through the same
///      ReconstructRegion as the scan, so every candidate is the scan's
///      double. A column is pruned only when its bound is strictly
///      below the best, so the final best is the scan's extremum.
/// Only +0 and -0 compare equal as different doubles. When a group's
/// answer is a zero, every zero cell of the group was reconstructed (the
/// others are bounded strictly below the answer), so the zeros' sign is
/// known unless both occur; then the group is recomputed by the scan,
/// whose order decides the sign. A PatchCell landing mid-search may or
/// may not be seen, as with the scan: each pruned cell lies below a
/// reconstructed value at the snapshot its bound came from.
StatusOr<std::vector<double>> BlockBoundExtremes(
    const QueryPlan& plan, AggregateFn fn, const CompressedStore& store,
    const SvddModel& domain, ThreadPool* pool, BlockBoundWork* work) {
  obs::TraceSpan span("query.block_bound");
  if (plan.group_by == GroupBy::kRow) {
    return Status::InvalidArgument("block-bound plan grouped by row");
  }
  const bool by_col = plan.group_by == GroupBy::kCol;
  const double sign = fn == AggregateFn::kMin ? -1.0 : 1.0;
  const std::size_t k = domain.k();
  const std::vector<std::size_t> col_ids = ExpandRanges(plan.col_runs);
  const std::size_t cols = col_ids.size();
  const std::vector<SelectedBlock> blocks = SelectedBlocks(plan.row_runs);
  work->blocks_total += blocks.size();

  // 1. The largest signed delta per (block, column), 0 if none is
  // positive: each run's part inside a block is one walk whose deltas
  // all belong to that block.
  Matrix delta_bound(blocks.size(), cols);
  const std::shared_ptr<const DeltaIndex> deltas = domain.deltas();
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const std::span<double> bound = delta_bound.Row(s);
    ForEachBlockStretch(plan.row_runs, blocks[s], [&](IdRange stretch) {
      deltas->ForEachInRegion(stretch, plan.col_runs,
                              [&](std::size_t c, double delta) {
                                bound[c] = std::max(bound[c], sign * delta);
                              });
    });
  }

  // 2. The bound of each (block, column), and each block's largest.
  Matrix weights(k, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::span<const double> w = domain.weighted_v().Row(col_ids[c]);
    for (std::size_t p = 0; p < k; ++p) weights(p, c) = sign * w[p];
  }
  const RowBlockSums& boxes = domain.svd().block_sums();
  Matrix bounds(blocks.size(), cols);
  std::vector<double> magnitude(cols);
  std::vector<double> block_max(blocks.size(),
                                -std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const std::span<double> bound = bounds.Row(s);
    boxes.BoxBounds(blocks[s].block, weights, magnitude, bound);
    for (std::size_t c = 0; c < cols; ++c) {
      bound[c] += delta_bound(s, c);
      block_max[s] = std::max(block_max[s], bound[c]);
    }
  }
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return block_max[a] > block_max[b];
                   });

  // 3. The search. best holds signed values: sign * cell.
  const std::size_t groups = by_col ? cols : 1;
  std::vector<double> best(groups, -std::numeric_limits<double>::infinity());
  // Per group, the signs of the zeros reconstructed: bit 0 +0, bit 1 -0.
  std::vector<unsigned> zero_signs(groups, 0);
  const auto group_of = [by_col](std::size_t c) { return by_col ? c : 0; };
  std::vector<std::size_t> rows;
  std::vector<std::size_t> live;
  std::vector<std::size_t> live_ids;
  Matrix out;
  for (const std::size_t s : order) {
    // Blocks come in descending order of their largest bound, so once
    // one cannot beat the weakest group's best, none after it can.
    if (block_max[s] < *std::min_element(best.begin(), best.end())) break;
    live.clear();
    live_ids.clear();
    for (std::size_t c = 0; c < cols; ++c) {
      if (bounds(s, c) >= best[group_of(c)]) {
        live.push_back(c);
        live_ids.push_back(col_ids[c]);
      }
    }
    if (live.empty()) continue;
    SelectedBlockRows(plan.row_runs, blocks[s], &rows);
    TSC_RETURN_IF_ERROR(store.ReconstructRegion(rows, live_ids, &out));
    ++work->blocks;
    work->rows += rows.size();
    work->cells += rows.size() * live.size();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::span<const double> values = out.Row(r);
      for (std::size_t l = 0; l < live.size(); ++l) {
        const std::size_t g = group_of(live[l]);
        best[g] = std::max(best[g], sign * values[l]);
        if (values[l] == 0.0) zero_signs[g] |= std::signbit(values[l]) ? 2 : 1;
      }
    }
  }

  std::vector<double> answers(groups);
  std::vector<std::size_t> zeros;
  for (std::size_t g = 0; g < groups; ++g) {
    answers[g] = sign * best[g];
    if (answers[g] == 0.0 && zero_signs[g] == 3) zeros.push_back(g);
  }
  if (zeros.empty()) return answers;
  // Mixed zeros: the scan over those groups' columns (every column
  // without grouping) accumulates each group exactly as the full scan
  // would.
  QueryPlan rescan = plan;
  rescan.aggregates = {fn};
  rescan.strategies = {ExecutionStrategy::kRowReconstruction};
  if (by_col) {
    std::vector<std::size_t> zero_ids;
    for (const std::size_t g : zeros) zero_ids.push_back(col_ids[g]);
    rescan.col_runs = CoalesceIds(zero_ids);
  }
  TSC_ASSIGN_OR_RETURN(const std::vector<GroupAcc> accs,
                       ScanGroupsBatched(rescan, store, pool, &work->rows));
  for (std::size_t z = 0; z < zeros.size(); ++z) {
    answers[zeros[z]] = Finalize(fn, accs[z]);
  }
  return answers;
}

/// Accumulates per-group statistics by scanning the raw matrix's rows;
/// the exact executor's counterpart of ScanGroupsBatched.
std::vector<GroupAcc> ScanGroups(const QueryPlan& plan, const Matrix& data,
                                 std::uint64_t* rows_scanned) {
  std::vector<GroupAcc> accs(plan.GroupCount());
  const bool keep_values = NeedsValueBuffer(plan);
  const std::vector<std::size_t> col_ids = ExpandRanges(plan.col_runs);
  std::size_t r = 0;
  ForEachId(plan.row_runs, [&](std::size_t i) {
    const std::span<const double> row = data.Row(i);
    ++*rows_scanned;
    for (std::size_t c = 0; c < col_ids.size(); ++c) {
      const double value = row[col_ids[c]];
      std::size_t g = 0;
      switch (plan.group_by) {
        case GroupBy::kRow:
          g = r;
          break;
        case GroupBy::kCol:
          g = c;
          break;
        case GroupBy::kNone:
          g = 0;
          break;
      }
      accs[g].stats.Add(value);
      if (keep_values) accs[g].values.push_back(value);
    }
    ++r;
  });
  return accs;
}

}  // namespace

std::string QueryResult::AnalyzeFooter() const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "-- groups: %zu, aggregates: %zu (%llu compressed-domain)\n",
                group_count(), aggregate_count,
                static_cast<unsigned long long>(compressed_domain_aggregates));
  out += line;
  if (!strategy_summary.empty()) {
    std::snprintf(line, sizeof(line), "-- strategies: %s\n",
                  strategy_summary.c_str());
    out += line;
  }
  if (agg_nodes_read > 0) {
    std::snprintf(line, sizeof(line), "-- block sums: %llu k-vectors read\n",
                  static_cast<unsigned long long>(agg_nodes_read));
    out += line;
  }
  if (bound_blocks_total > 0) {
    std::snprintf(line, sizeof(line),
                  "-- block bound: blocks reconstructed %llu of %llu, "
                  "cells %llu\n",
                  static_cast<unsigned long long>(bound_blocks_reconstructed),
                  static_cast<unsigned long long>(bound_blocks_total),
                  static_cast<unsigned long long>(bound_cells));
    out += line;
  }
  std::snprintf(line, sizeof(line), "-- rows reconstructed: %llu\n",
                static_cast<unsigned long long>(rows_reconstructed));
  out += line;
  std::snprintf(line, sizeof(line),
                "-- parse %.1f us, plan %.1f us, exec %.1f us\n", parse_us,
                plan_us, exec_us);
  out += line;
  return out;
}

QueryExecutor::QueryExecutor(const CompressedStore* store,
                             std::size_t num_threads)
    : store_(store) {
  TSC_CHECK(store != nullptr);
  if (num_threads > 1) pool_ = std::make_shared<ThreadPool>(num_threads);
  domain_ = store->compressed_domain();
  if (domain_ != nullptr) rollup_ = AggregateHierarchy::Build(*domain_);
}

QueryExecutor::QueryExecutor(const SvddModel* model, std::size_t num_threads,
                             bool)
    : QueryExecutor(static_cast<const CompressedStore*>(model), num_threads) {
}

StatusOr<QueryPlan> QueryExecutor::Plan(const QueryAst& ast) const {
  const std::size_t model_k = domain_ != nullptr ? domain_->k() : 0;
  return PlanQuery(ast, rows(), cols(), model_k);
}

StatusOr<std::string> QueryExecutor::Explain(
    const std::string& query_text) const {
  TSC_ASSIGN_OR_RETURN(const QueryAst ast, ParseQuery(query_text));
  TSC_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(ast));
  return plan.ToString();
}

StatusOr<QueryResult> QueryExecutor::Execute(
    const std::string& query_text) const {
  const auto parse_start = std::chrono::steady_clock::now();
  TSC_ASSIGN_OR_RETURN(const QueryAst ast, ParseQuery(query_text));
  const double parse_us = MicrosSince(parse_start);

  const auto plan_start = std::chrono::steady_clock::now();
  TSC_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(ast));
  const double plan_us = MicrosSince(plan_start);

  TSC_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(plan));
  result.parse_us = parse_us;
  result.plan_us = plan_us;
  return result;
}

StatusOr<QueryResult> QueryExecutor::ExecutePlan(const QueryPlan& plan) const {
  static obs::Histogram& exec_hist =
      obs::MetricRegistry::Default().GetHistogram("query.exec_us");
  static obs::Counter& scanned_counter =
      obs::MetricRegistry::Default().GetCounter("query.rows_scanned");
  static obs::Counter& rollup_hits_counter =
      obs::MetricRegistry::Default().GetCounter("agg.rollup_hits");
  static obs::Counter& scan_fallbacks_counter =
      obs::MetricRegistry::Default().GetCounter("agg.scan_fallbacks");
  static obs::Counter& agg_nodes_counter =
      obs::MetricRegistry::Default().GetCounter("agg.nodes_read");

  obs::TraceSpan span("query.execute");
  const auto exec_start = std::chrono::steady_clock::now();
  const bool any_reconstruction =
      std::any_of(plan.strategies.begin(), plan.strategies.end(),
                  [&](ExecutionStrategy s) {
                    return s == ExecutionStrategy::kRowReconstruction;
                  });
  std::uint64_t rows_scanned = 0;
  std::vector<GroupAcc> group_stats(plan.GroupCount());
  if (any_reconstruction) {
    TSC_ASSIGN_OR_RETURN(
        group_stats,
        ScanGroupsBatched(plan, *store_, pool_.get(), &rows_scanned));
  }
  BlockBoundWork bound_work;
  std::vector<std::vector<double>> extremes(plan.aggregates.size());
  for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
    if (plan.strategies[a] != ExecutionStrategy::kBlockBound) continue;
    if (domain_ == nullptr) {
      return Status::Internal("block-bound plan without a compressed domain");
    }
    TSC_ASSIGN_OR_RETURN(
        extremes[a], BlockBoundExtremes(plan, plan.aggregates[a], *store_,
                                        *domain_, pool_.get(), &bound_work));
  }
  rows_scanned += bound_work.rows;
  RollupStats agg_stats;
  const ResultBuilder builder(plan, domain_, rollup_.get(), &agg_stats);
  TSC_ASSIGN_OR_RETURN(QueryResult result,
                       builder.Build(group_stats, rows_scanned, extremes));
  result.agg_nodes_read = agg_stats.nodes_read;
  result.bound_blocks_reconstructed = bound_work.blocks;
  result.bound_blocks_total = bound_work.blocks_total;
  result.bound_cells = bound_work.cells;
  result.exec_us = MicrosSince(exec_start);
  exec_hist.Record(result.exec_us);
  scanned_counter.Add(rows_scanned);
  obs::ChargeRowsScanned(rows_scanned);
  // Per-aggregate strategy accounting: a linear aggregate either ran in
  // the compressed domain or fell back to a scan; non-linear aggregates
  // are out of scope for either counter.
  for (std::size_t a = 0; a < plan.strategies.size(); ++a) {
    if (plan.strategies[a] == ExecutionStrategy::kCompressedDomain) {
      rollup_hits_counter.Increment();
      obs::ChargeRollupHit();
    } else if (IsLinearAggregate(plan.aggregates[a])) {
      scan_fallbacks_counter.Increment();
      obs::ChargeScanFallback();
    }
  }
  agg_nodes_counter.Add(agg_stats.nodes_read);
  obs::ChargeAggNodesRead(agg_stats.nodes_read);
  return result;
}

StatusOr<QueryResult> ExecuteExact(const Matrix& data,
                                   const std::string& query_text) {
  TSC_ASSIGN_OR_RETURN(const QueryAst ast, ParseQuery(query_text));
  TSC_ASSIGN_OR_RETURN(const QueryPlan plan,
                       PlanQuery(ast, data.rows(), data.cols(), 0));
  std::uint64_t rows_scanned = 0;
  const std::vector<GroupAcc> group_stats =
      ScanGroups(plan, data, &rows_scanned);
  const ResultBuilder builder(plan, nullptr);
  return builder.Build(group_stats, rows_scanned);
}

}  // namespace tsc
