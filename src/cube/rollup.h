#ifndef TSC_CUBE_ROLLUP_H_
#define TSC_CUBE_ROLLUP_H_

#include <cstdint>
#include <memory>
#include <span>

#include "core/svdd_compressor.h"
#include "util/id_range.h"
#include "util/status.h"

namespace tsc {

/// Per-query aggregate work accounting, surfaced as `agg.nodes_read`
/// and the X-Query-Cost `agg_nodes_read` field.
struct RollupStats {
  /// k-vectors (U rows, block sums, superblock sums) read to form the
  /// selected rows' U mass.
  std::uint64_t nodes_read = 0;
};

/// Linear aggregates over the compressed domain, as a stateless view of
/// an SVDD model whose U is in memory or on disk: the selected rows' U
/// mass comes from U's block sums (SvddModel::AccumulateRowMass), the
/// columns' mass is a direct sum of Lambda-weighted V rows, and the
/// deltas come from the domain's current DeltaIndex snapshot. The view
/// holds nothing of its own, so patches and fold-ins need no
/// notification.
///
/// Region sum identity (exact up to fp reassociation):
///   sum_{i in R, j in C} X-hat(i,j)
///     = dot(sum_{i in R} u_i, sum_{j in C} lambda.v_j)
///       + sum_{(i,j) in R x C} delta(i,j)
class AggregateHierarchy {
 public:
  /// The model must outlive the view and not move (the same contract
  /// the QueryExecutor already imposes on its store).
  static std::shared_ptr<AggregateHierarchy> Build(const SvddModel& model);

  /// The headline query: sum over the region, deltas folded. A failed
  /// U-row read (disk layout) is the error.
  StatusOr<double> RegionSum(std::span<const IdRange> row_ranges,
                             std::span<const IdRange> col_ranges,
                             RollupStats* stats) const;

 private:
  explicit AggregateHierarchy(const SvddModel& model) : model_(&model) {}

  const SvddModel* model_;
};

}  // namespace tsc

#endif  // TSC_CUBE_ROLLUP_H_
