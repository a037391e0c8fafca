#include "query/planner.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/row_block_sums.h"

namespace tsc {
namespace {

/// The intersection of all constraints on one dimension as normalized
/// runs; no constraint selects everything.
StatusOr<std::vector<IdRange>> ResolveDimension(const QueryAst& ast,
                                                bool is_row,
                                                std::size_t extent) {
  std::vector<IdRange> selected = {{0, extent - 1}};
  bool constrained = false;
  for (const DimensionConstraint& constraint : ast.constraints) {
    if (constraint.is_row != is_row) continue;
    for (const IdRange& range : constraint.ranges) {
      if (range.hi >= extent) {
        return Status::OutOfRange(
            std::string(is_row ? "row" : "col") + " index " +
            std::to_string(range.hi) + " out of range (extent " +
            std::to_string(extent) + ")");
      }
    }
    selected =
        IntersectRanges(selected, NormalizeRanges(constraint.ranges));
    constrained = true;
  }
  if (constrained && selected.empty()) {
    return Status::InvalidArgument("predicate selects no " +
                                   std::string(is_row ? "rows" : "columns"));
  }
  return selected;
}

bool IsLinearAggregate(AggregateFn fn) {
  return fn == AggregateFn::kSum || fn == AggregateFn::kAvg ||
         fn == AggregateFn::kCount;
}

bool IsExtremum(AggregateFn fn) {
  return fn == AggregateFn::kMin || fn == AggregateFn::kMax;
}

/// Whether the plan's min/max can run by block bound: grouped by column
/// or not at all, over rows in at least two 64-row blocks (within one
/// block there is nothing to order), and with no aggregate that needs
/// the scan anyway.
bool BlockBoundApplies(const QueryPlan& plan) {
  if (plan.group_by == GroupBy::kRow) return false;
  if (plan.row_runs.front().lo / RowBlockSums::kRowBlock ==
      plan.row_runs.back().hi / RowBlockSums::kRowBlock) {
    return false;
  }
  return std::all_of(plan.aggregates.begin(), plan.aggregates.end(),
                     [](AggregateFn fn) {
                       return IsLinearAggregate(fn) || IsExtremum(fn);
                     });
}

}  // namespace

const char* ExecutionStrategyName(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kRowReconstruction:
      return "row-reconstruction";
    case ExecutionStrategy::kCompressedDomain:
      return "compressed-domain";
    case ExecutionStrategy::kBlockBound:
      return "block-bound";
  }
  return "?";
}

std::string QueryPlan::ToString() const {
  std::ostringstream out;
  out << "plan: " << RowCount() << " rows x " << ColCount()
      << " cols (" << CellCount() << " cells)";
  if (group_by == GroupBy::kRow) out << ", grouped by row";
  if (group_by == GroupBy::kCol) out << ", grouped by col";
  out << "\n";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    out << "  " << AggregateFnName(aggregates[i]) << "(value) via "
        << ExecutionStrategyName(strategies[i]) << "\n";
  }
  return out.str();
}

StatusOr<QueryPlan> PlanQuery(const QueryAst& ast, std::size_t num_rows,
                              std::size_t num_cols, std::size_t model_k) {
  if (num_rows == 0 || num_cols == 0) {
    return Status::InvalidArgument("empty relation");
  }
  QueryPlan plan;
  TSC_ASSIGN_OR_RETURN(plan.row_runs,
                       ResolveDimension(ast, /*is_row=*/true, num_rows));
  TSC_ASSIGN_OR_RETURN(plan.col_runs,
                       ResolveDimension(ast, /*is_row=*/false, num_cols));
  plan.aggregates = ast.aggregates;
  plan.group_by = ast.group_by;

  // Cost model: row reconstruction pays ~k * M + |cols| per selected
  // row; the compressed domain pays ~k per selected column plus ~k per
  // block of selected rows, so it wins for every selection it can
  // answer. The block bound pays ~k per (block, column) for the bounds
  // and reconstructs only the blocks that can still hold the answer.
  const bool block_bound_ok = model_k > 0 && BlockBoundApplies(plan);
  for (const AggregateFn fn : plan.aggregates) {
    ExecutionStrategy strategy = ExecutionStrategy::kRowReconstruction;
    if (model_k > 0 && IsLinearAggregate(fn)) {
      strategy = ExecutionStrategy::kCompressedDomain;
    } else if (block_bound_ok && IsExtremum(fn)) {
      strategy = ExecutionStrategy::kBlockBound;
    }
    plan.strategies.push_back(strategy);
  }
  return plan;
}

}  // namespace tsc
