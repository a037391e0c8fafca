#ifndef TSC_QUERY_EXECUTOR_H_
#define TSC_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_store.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "linalg/matrix.h"
#include "query/planner.h"
#include "util/status.h"

namespace tsc {

class AggregateHierarchy;
class ThreadPool;

/// One executed query's results plus execution statistics. Without
/// GROUP BY there is exactly one group; with it, one group per selected
/// row (or column), identified by `group_keys`.
struct QueryResult {
  /// Flat group-major layout: values[g * aggregates + a].
  std::vector<double> values;
  /// Row or col ids of the groups; empty when the query had no GROUP BY.
  std::vector<std::size_t> group_keys;
  std::size_t aggregate_count = 0;
  std::uint64_t rows_reconstructed = 0;
  /// Aggregates answered without row reconstruction (the rollup ones
  /// included — the hierarchy IS compressed-domain evaluation).
  std::uint64_t compressed_domain_aggregates = 0;
  /// Of those, aggregates answered from the rollup hierarchy, and the
  /// segment-tree nodes consumed doing so.
  std::uint64_t rollup_aggregates = 0;
  std::uint64_t rollup_nodes_read = 0;
  std::string plan_text;
  /// Per-aggregate strategy actually used, e.g. "sum=rollup
  /// max=row-reconstruction" (the --analyze footer's strategy line).
  std::string strategy_summary;

  /// Stage latencies, microseconds. parse_us and plan_us are only filled
  /// by Execute() (ExecutePlan never saw the text); exec_us always is.
  double parse_us = 0.0;
  double plan_us = 0.0;
  double exec_us = 0.0;

  std::size_t group_count() const {
    return aggregate_count == 0 ? 0 : values.size() / aggregate_count;
  }
  double ValueAt(std::size_t group, std::size_t aggregate) const {
    return values[group * aggregate_count + aggregate];
  }

  /// EXPLAIN ANALYZE-style footer: stage latencies and scan counts, one
  /// "-- " line each, appended after the result table by `sql --analyze`.
  std::string AnalyzeFooter() const;
};

/// Runs ad hoc SQL-ish queries against a compressed model. The executor
/// prefers the SVDD fast path (compressed-domain evaluation with delta
/// folding) when the planner selects it; everything else goes through
/// batched region reconstruction on the CompressedStore interface.
///
/// Row-reconstruction scans are dealt to a fixed number of shards and
/// reduced in shard order, so for a given model the result is bitwise
/// identical for every `num_threads` value (the same discipline as the
/// parallel build).
class QueryExecutor {
 public:
  /// Generic store: every aggregate runs by row reconstruction.
  /// `num_threads` > 1 scans with an internal thread pool.
  explicit QueryExecutor(const CompressedStore* store,
                         std::size_t num_threads = 1);
  /// SVDD model: linear aggregates can run in the compressed domain.
  /// By default an aggregate rollup hierarchy (cube/rollup.h) is built
  /// over the model and becomes the planner's preferred strategy for
  /// sum/avg/count; `enable_rollup = false` (or the TSC_NO_ROLLUP
  /// environment kill switch) restores the pre-hierarchy behavior.
  explicit QueryExecutor(const SvddModel* model, std::size_t num_threads = 1,
                         bool enable_rollup = true);

  std::size_t rows() const { return store_->rows(); }
  std::size_t cols() const { return store_->cols(); }

  /// The aggregate hierarchy, or nullptr (generic store / disabled).
  /// Shared with the server data API's bucket reductions.
  const AggregateHierarchy* rollup() const { return rollup_.get(); }

  /// Parse + plan + execute in one call.
  StatusOr<QueryResult> Execute(const std::string& query_text) const;

  /// Plans a parsed (or directly built) query against this executor's
  /// matrix, model rank and rollup.
  StatusOr<QueryPlan> Plan(const QueryAst& ast) const;

  /// Execute a pre-built plan.
  StatusOr<QueryResult> ExecutePlan(const QueryPlan& plan) const;

  /// EXPLAIN: parse + plan, no execution.
  StatusOr<std::string> Explain(const std::string& query_text) const;

 private:
  const CompressedStore* store_;
  const SvddModel* svdd_ = nullptr;  ///< non-null enables the fast path
  std::shared_ptr<ThreadPool> pool_;  ///< null = scan on the calling thread
  /// Owned rollup hierarchy; it reads the model's current delta
  /// snapshot per query, so patches need no notification. Null when
  /// disabled.
  std::shared_ptr<AggregateHierarchy> rollup_;
};

/// Exact reference executor over the raw matrix (tests, accuracy
/// comparisons). All aggregates run directly on the data.
StatusOr<QueryResult> ExecuteExact(const Matrix& data,
                                   const std::string& query_text);

}  // namespace tsc

#endif  // TSC_QUERY_EXECUTOR_H_
