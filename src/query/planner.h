#ifndef TSC_QUERY_PLANNER_H_
#define TSC_QUERY_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/query.h"
#include "query/parser.h"
#include "util/status.h"

namespace tsc {

/// Execution strategies the planner can choose per aggregate.
enum class ExecutionStrategy {
  /// Reconstruct each selected row once, then aggregate the selected
  /// cells — O(selected_rows * (k*M + |cols|)). Works for every fn.
  kRowReconstruction,
  /// Compute entirely in the compressed domain from U, Lambda, V (and
  /// the delta index): O(|cols|*k) setup + O(k) per selected row.
  /// Available for sum/avg/count, which are linear in the cells.
  kCompressedDomain,
  /// Answer from the multi-resolution aggregate hierarchy (cube/rollup.h):
  /// O(k log N + k log M) segment-tree node reads, no per-row work at
  /// all. Preferred for linear aggregates whenever the executor has a
  /// hierarchy built; kCompressedDomain remains the fallback.
  kRollup,
};

const char* ExecutionStrategyName(ExecutionStrategy strategy);

/// A planned query: concrete index sets plus a strategy per aggregate.
struct QueryPlan {
  std::vector<std::size_t> row_ids;
  std::vector<std::size_t> col_ids;
  std::vector<AggregateFn> aggregates;
  std::vector<ExecutionStrategy> strategies;  ///< parallel to aggregates
  GroupBy group_by = GroupBy::kNone;

  std::size_t CellCount() const { return row_ids.size() * col_ids.size(); }
  /// Group keys the result will be reported for (row or col ids), or a
  /// single pseudo-group when there is no GROUP BY.
  std::size_t GroupCount() const {
    switch (group_by) {
      case GroupBy::kRow:
        return row_ids.size();
      case GroupBy::kCol:
        return col_ids.size();
      case GroupBy::kNone:
        return 1;
    }
    return 1;
  }
  /// Human-readable plan (EXPLAIN output).
  std::string ToString() const;
};

/// Resolves the AST's constraints against a concrete num_rows x num_cols
/// matrix (intersecting repeated constraints, clipping is an error) and
/// picks a strategy per aggregate.
///
/// Strategy choice: linear aggregates resolve from the aggregate rollup
/// hierarchy when the executor has one (`rollup_available`) — O(k log)
/// node reads regardless of selection size; otherwise linear aggregates
/// over wide selections (many columns per selected row) run in the
/// compressed domain, where the per-row cost is O(k) instead of O(k*M);
/// narrow or non-linear aggregates use row reconstruction.
StatusOr<QueryPlan> PlanQuery(const QueryAst& ast, std::size_t num_rows,
                              std::size_t num_cols, std::size_t model_k,
                              bool rollup_available = false);

}  // namespace tsc

#endif  // TSC_QUERY_PLANNER_H_
