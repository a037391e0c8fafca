#ifndef TSC_OBS_QUERY_CONTEXT_H_
#define TSC_OBS_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace tsc::obs {

// ---------------------------------------------------------------------------
// Per-request cost accounting. A QueryContext is created at the request
// boundary (the HTTP server, a CLI command, a test) and installed on the
// handling thread; the storage/query layers then charge every cache probe,
// disk block, I/O byte, scanned row and delta probe to the context that is
// current on their thread, right beside the process-wide counter each site
// already bumps. The invariant tests rely on: summed over all requests,
// the per-request deltas equal the process-wide counter deltas.
//
// Cost fields are relaxed atomics because attribution legitimately crosses
// threads — a query-scan pool shard charges work to the context of the
// request that caused it — and relaxed increments on a per-request struct
// are contention-free in practice.
// ---------------------------------------------------------------------------

/// Plain-value copy of one request's attributed costs, the paper's
/// disk-access metric live and per query (see docs/observability.md).
struct QueryCostVector {
  std::uint64_t admission_wait_us = 0;  ///< time queued before execution
  std::uint64_t cache_hits = 0;         ///< block_cache.hits delta
  std::uint64_t cache_misses = 0;       ///< block_cache.misses delta
  std::uint64_t blocks_fetched = 0;     ///< storage.disk.accesses delta
  std::uint64_t io_bytes = 0;           ///< io.bytes_read delta
  std::uint64_t rows_scanned = 0;       ///< query.rows_scanned delta
  std::uint64_t delta_probes = 0;       ///< delta.lookups delta
  std::uint64_t rollup_hits = 0;        ///< agg.rollup_hits delta
  std::uint64_t scan_fallbacks = 0;     ///< agg.scan_fallbacks delta
  std::uint64_t agg_nodes_read = 0;     ///< agg.nodes_read delta
  std::uint64_t serialize_us = 0;       ///< request.serialize_us sum delta

  /// Compact `k=v k=v` form for the X-Query-Cost response header and
  /// the slow-query log's text rendering.
  std::string ToKvString() const;
};

/// One request's identity (trace id) plus its accumulating cost vector.
/// Install with ScopedQueryContext; the struct itself is cheap enough to
/// live on the request handler's stack.
class QueryContext {
 public:
  QueryContext() = default;
  explicit QueryContext(std::string trace_id)
      : trace_id_(std::move(trace_id)) {}
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  const std::string& trace_id() const { return trace_id_; }
  void set_trace_id(std::string trace_id) { trace_id_ = std::move(trace_id); }

  /// Attribution targets; charged via the Charge* helpers below.
  std::atomic<std::uint64_t> admission_wait_us{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> blocks_fetched{0};
  std::atomic<std::uint64_t> io_bytes{0};
  std::atomic<std::uint64_t> rows_scanned{0};
  std::atomic<std::uint64_t> delta_probes{0};
  std::atomic<std::uint64_t> rollup_hits{0};
  std::atomic<std::uint64_t> scan_fallbacks{0};
  std::atomic<std::uint64_t> agg_nodes_read{0};
  std::atomic<std::uint64_t> serialize_us{0};

  /// Consistent-enough copy of the costs (relaxed loads; exact once the
  /// request's work has quiesced, which is when responses are built).
  QueryCostVector Costs() const;

 private:
  std::string trace_id_;
};

namespace detail {
/// The context current on this thread, nullptr outside any request.
extern constinit thread_local QueryContext* t_query_context;
}  // namespace detail

/// The installed context, or nullptr. Always nullptr (and free) under
/// TSC_OBS_DISABLED.
inline QueryContext* CurrentQueryContext() {
#ifndef TSC_OBS_DISABLED
  return detail::t_query_context;
#else
  return nullptr;
#endif
}

/// RAII install/restore of the thread's current context. Pass the parent
/// thread's context into worker lambdas (query-scan pool shards) to
/// keep attribution flowing across thread hops:
///
///   QueryContext* parent = CurrentQueryContext();
///   pool.Run([parent] { ScopedQueryContext scope(parent); ... });
#ifndef TSC_OBS_DISABLED
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* context)
      : previous_(detail::t_query_context) {
    detail::t_query_context = context;
  }
  ~ScopedQueryContext() { detail::t_query_context = previous_; }
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* previous_;
};
#else
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext*) {}
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;
};
#endif

// ---------------------------------------------------------------------------
// Charge helpers. Each is placed directly beside the process-wide counter
// increment it mirrors, so per-request deltas sum to the process counters.
// Cost on the instrumented path: one thread-local load + branch (the
// pointer is null whenever no request is in flight); empty bodies under
// TSC_OBS_DISABLED.
// ---------------------------------------------------------------------------

namespace detail {
inline void Charge(std::atomic<std::uint64_t> QueryContext::* field,
                   std::uint64_t n) {
#ifndef TSC_OBS_DISABLED
  if (QueryContext* context = t_query_context) {
    (context->*field).fetch_add(n, std::memory_order_relaxed);
  }
#else
  (void)field;
  (void)n;
#endif
}
}  // namespace detail

inline void ChargeCacheHit() { detail::Charge(&QueryContext::cache_hits, 1); }
inline void ChargeCacheMiss() {
  detail::Charge(&QueryContext::cache_misses, 1);
}
inline void ChargeBlocksFetched(std::uint64_t blocks) {
  detail::Charge(&QueryContext::blocks_fetched, blocks);
}
inline void ChargeIoBytes(std::uint64_t bytes) {
  detail::Charge(&QueryContext::io_bytes, bytes);
}
inline void ChargeRowsScanned(std::uint64_t rows) {
  detail::Charge(&QueryContext::rows_scanned, rows);
}
inline void ChargeDeltaProbes(std::uint64_t probes) {
  detail::Charge(&QueryContext::delta_probes, probes);
}
inline void ChargeAdmissionWaitUs(std::uint64_t wait_us) {
  detail::Charge(&QueryContext::admission_wait_us, wait_us);
}
/// Aggregate accounting: one rollup hit per aggregate answered in the
/// compressed domain, one scan fallback per linear aggregate that had
/// to scan instead, and the k-vectors of U (rows, block and superblock
/// sums) read for the row mass while answering this request.
inline void ChargeRollupHit() { detail::Charge(&QueryContext::rollup_hits, 1); }
inline void ChargeScanFallback() {
  detail::Charge(&QueryContext::scan_fallbacks, 1);
}
inline void ChargeAggNodesRead(std::uint64_t nodes) {
  detail::Charge(&QueryContext::agg_nodes_read, nodes);
}
/// Time spent writing the answer's response body (JSON, CSV or text).
inline void ChargeSerializeUs(std::uint64_t serialize_us) {
  detail::Charge(&QueryContext::serialize_us, serialize_us);
}

/// Process-unique 16-hex-digit trace id (SplitMix64 of a process-wide
/// sequence, so ids from one process never collide and cost nothing to
/// coordinate).
std::string GenerateTraceId();

}  // namespace tsc::obs

#endif  // TSC_OBS_QUERY_CONTEXT_H_
