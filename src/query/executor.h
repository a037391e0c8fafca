#ifndef TSC_QUERY_EXECUTOR_H_
#define TSC_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_store.h"
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
  /// Aggregates answered without row reconstruction, and the k-vectors
  /// of U (rows, block and superblock sums) read for their row mass.
  std::uint64_t compressed_domain_aggregates = 0;
  std::uint64_t agg_nodes_read = 0;
  /// The block-bound min/max searches, summed over the query's: the
  /// 64-row blocks they reconstructed, the blocks their selection spans,
  /// and the cells they reconstructed.
  std::uint64_t bound_blocks_reconstructed = 0;
  std::uint64_t bound_blocks_total = 0;
  std::uint64_t bound_cells = 0;
  std::string plan_text;
  /// Per-aggregate strategy actually used, e.g. "sum=compressed-domain
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

/// Runs ad hoc SQL-ish queries against a compressed model. Linear
/// aggregates run in the compressed domain whenever the store is an SVDD
/// model (CompressedStore::compressed_domain, whether U is in memory or
/// on disk), with delta folding, and min/max over several row blocks by
/// a branch-and-bound search over U's block boxes (on the calling
/// thread); everything else goes through batched region reconstruction
/// on the CompressedStore interface, whose failed U-row reads come back
/// as the query's Status.
///
/// Row-reconstruction scans are dealt to a fixed number of shards and
/// reduced in shard order, so for a given model the result is bitwise
/// identical for every `num_threads` value (the same discipline as the
/// parallel build).
class QueryExecutor {
 public:
  /// `num_threads` > 1 scans with an internal thread pool.
  explicit QueryExecutor(const CompressedStore* store,
                         std::size_t num_threads = 1);
  /// The same executor over an SVDD model; the bool selects nothing and
  /// is kept for source compatibility.
  explicit QueryExecutor(const SvddModel* model, std::size_t num_threads = 1,
                         bool /*unused*/ = true);

  std::size_t rows() const { return store_->rows(); }
  std::size_t cols() const { return store_->cols(); }

  /// The aggregate view over the store's compressed domain, or nullptr
  /// for a store without one.
  const AggregateHierarchy* rollup() const { return rollup_.get(); }

  /// Parse + plan + execute in one call.
  StatusOr<QueryResult> Execute(const std::string& query_text) const;

  /// Plans a parsed (or directly built) query against this executor's
  /// matrix and model rank.
  StatusOr<QueryPlan> Plan(const QueryAst& ast) const;

  /// Execute a pre-built plan.
  StatusOr<QueryResult> ExecutePlan(const QueryPlan& plan) const;

  /// EXPLAIN: parse + plan, no execution.
  StatusOr<std::string> Explain(const std::string& query_text) const;

 private:
  const CompressedStore* store_;
  /// The store's compressed domain; non-null enables the fast path.
  const SvddModel* domain_ = nullptr;
  std::shared_ptr<ThreadPool> pool_;  ///< null = scan on the calling thread
  /// View over domain_ (null without one); it reads the model's current
  /// state per query, so patches need no notification.
  std::shared_ptr<AggregateHierarchy> rollup_;
};

/// Exact reference executor over the raw matrix (tests, accuracy
/// comparisons). All aggregates run directly on the data.
StatusOr<QueryResult> ExecuteExact(const Matrix& data,
                                   const std::string& query_text);

}  // namespace tsc

#endif  // TSC_QUERY_EXECUTOR_H_
