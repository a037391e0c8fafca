#ifndef TSC_QUERY_PLANNER_H_
#define TSC_QUERY_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/query.h"
#include "query/parser.h"
#include "util/id_range.h"
#include "util/status.h"

namespace tsc {

/// Execution strategies the planner can choose per aggregate.
enum class ExecutionStrategy {
  /// Reconstruct each selected row once, then aggregate the selected
  /// cells — O(selected_rows * (k*M + |cols|)). Works for every fn.
  kRowReconstruction,
  /// Compute entirely in the compressed domain from U, Lambda, V (and
  /// the delta index), with the selected rows' U mass taken from the
  /// model's block sums: O(k) per selected column plus O(k) per 64-row
  /// block or 4096-row superblock, and O(k) per row only when grouping
  /// by row. Available for sum/avg/count, which are linear in the cells.
  kCompressedDomain,
  /// MIN/MAX by branch and bound over U's 64-row block boxes: bound
  /// every (block, selected column) from the box and the block's
  /// deltas, then reconstruct blocks in descending bound order, only the
  /// columns whose bound can still beat the running answer. Every
  /// candidate is reconstructed like the scan's cell, so the answer is
  /// the scan's double. Used when grouping by column or not at all, the
  /// selection spans at least two blocks and no other aggregate of the
  /// query needs the scan.
  kBlockBound,
};

const char* ExecutionStrategyName(ExecutionStrategy strategy);

/// A planned query: the selection as sorted, disjoint runs per
/// dimension, plus a strategy per aggregate. A plan holds nothing per
/// selected id; executors expand ids only where they need them.
struct QueryPlan {
  std::vector<IdRange> row_runs;
  std::vector<IdRange> col_runs;
  std::vector<AggregateFn> aggregates;
  std::vector<ExecutionStrategy> strategies;  ///< parallel to aggregates
  GroupBy group_by = GroupBy::kNone;

  std::size_t RowCount() const { return RangesSize(row_runs); }
  std::size_t ColCount() const { return RangesSize(col_runs); }
  std::size_t CellCount() const { return RowCount() * ColCount(); }
  /// Group keys the result will be reported for (row or col ids), or a
  /// single pseudo-group when there is no GROUP BY.
  std::size_t GroupCount() const {
    switch (group_by) {
      case GroupBy::kRow:
        return RowCount();
      case GroupBy::kCol:
        return ColCount();
      case GroupBy::kNone:
        return 1;
    }
    return 1;
  }
  /// Human-readable plan (EXPLAIN output).
  std::string ToString() const;
};

/// Resolves the AST's constraints against a concrete num_rows x num_cols
/// matrix and picks a strategy per aggregate. Each constraint's ranges
/// are normalized (sorted, overlaps and neighbours merged) and repeated
/// constraints on a dimension intersect run by run, so planning costs
/// O(R log R) in the R ranges of the query, whatever the matrix size. A
/// range past the extent is OutOfRange; an empty intersection is
/// InvalidArgument.
///
/// Strategy choice: with a model (`model_k` > 0), linear aggregates run
/// in the compressed domain and min/max by block bound where it applies
/// (see kBlockBound); the other non-linear ones, and every aggregate
/// without a model, use row reconstruction.
StatusOr<QueryPlan> PlanQuery(const QueryAst& ast, std::size_t num_rows,
                              std::size_t num_cols, std::size_t model_k);

}  // namespace tsc

#endif  // TSC_QUERY_PLANNER_H_
