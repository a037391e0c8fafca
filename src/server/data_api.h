#ifndef TSC_SERVER_DATA_API_H_
#define TSC_SERVER_DATA_API_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "util/status.h"

namespace tsc::server {

/// Ceilings the data endpoint enforces on hostile or oversized
/// requests before any reconstruction runs.
struct DataApiLimits {
  std::size_t max_points = 4096;  ///< buckets one response may carry
  std::size_t max_ranges = 64;    ///< ranges in one rows= selection
};

/// One resolved /api/v1/data request. The time axis is the column axis:
/// `after`/`before` are inclusive column indices after resolution.
///
/// Wire parameters (netdata's data-API shapes, mapped onto columns):
///   after   first column; < 0 means "the last -after columns ending at
///           before" (after=-600&before=0 is the most recent 600 cols)
///   before  last column; <= 0 is relative to the newest column
///           (0 = newest, -5 = five columns earlier)
///   points  number of output buckets; 0 or >= window means every
///           column as-is
///   group   bucket reduction: avg (default) | min | max | sum
///   rows    row selection, e.g. "0:99,150,200:209"; or "~pattern", a
///           key regex matched against the server's row-key map
///           (netdata-style dimension patterns); default all rows
struct DataRequest {
  std::size_t after = 0;
  std::size_t before = 0;
  std::size_t points = 0;  ///< resolved bucket count (>= 1)
  AggregateFn group = AggregateFn::kAvg;
  std::vector<IdRange> rows;  ///< empty = all rows
};

/// One output bucket: `t` is the first column of the bucket, `value`
/// the group-reduced aggregate over (selected rows) x (bucket columns).
struct DataPoint {
  std::size_t t = 0;
  double value = 0.0;
};

struct DataResult {
  DataRequest request;              ///< resolved window and options
  std::size_t rows_selected = 0;
  std::vector<DataPoint> data;
  double exec_us = 0.0;
  std::uint64_t compressed_domain_aggregates = 0;
};

/// Parses a rows= selection ("0:99,150") into ranges under the caps:
/// at most `max_ranges` ranges, indices < `num_rows`, lo <= hi, no
/// trailing garbage. Everything else is an InvalidArgument.
StatusOr<std::vector<IdRange>> ParseRowsParam(const std::string& text,
                                              std::size_t num_rows,
                                              std::size_t max_ranges);

/// Resolves a `rows=~pattern` key regex against the row-key map:
/// `pattern` (LiteRegex — a linear-time ECMAScript subset, searched
/// anywhere in the key, capped at 256 bytes) selects every row whose
/// key matches; consecutive matches coalesce into ranges. Only the
/// first `num_rows` keys are consulted, so an oversized key map cannot
/// produce out-of-range indices. Zero matches and invalid patterns are
/// InvalidArgument.
StatusOr<std::vector<IdRange>> ResolveRowsPattern(
    const std::string& pattern, const std::vector<std::string>& row_keys,
    std::size_t num_rows);

/// Resolves the wire parameters against the executor's matrix shape.
/// `row_keys` (one key per row, may be nullptr) enables the
/// `rows=~pattern` form; index selections never need it.
StatusOr<DataRequest> ResolveDataRequest(
    const std::map<std::string, std::string>& params, std::size_t num_rows,
    std::size_t num_cols, const DataApiLimits& limits,
    const std::vector<std::string>* row_keys = nullptr);

/// Runs one resolved request: a single per-column aggregate pass through
/// the executor (compressed-domain for sum/avg on SVDD models), then an
/// exact bucket reduction to `points` buckets. Exactness: sum-of-sums,
/// min-of-mins and max-of-maxes are trivially exact; the avg of a
/// rows x bucket region equals the mean of its per-column avgs because
/// every column has the same selected-row count.
StatusOr<DataResult> ExecuteDataRequest(const QueryExecutor& executor,
                                        const DataRequest& request);

/// Serializations for the wire: compact JSON (labels + [t, value]
/// pairs) and a two-column CSV.
std::string DataResultToJson(const DataResult& result);
std::string DataResultToCsv(const DataResult& result);

/// The /api/v1/query format=json body: values, group keys, the
/// executor's counters and exec_us.
std::string QueryResultToJson(const QueryResult& result);

/// Appends `value` as a default-formatted `std::ostream << value` writes
/// it (printf "%g": six significant digits), through std::to_chars. The
/// CSV and text query bodies use it, so they stay byte-identical to
/// `tsctool sql`'s output.
void AppendDefaultFormat(double value, std::string* out);

}  // namespace tsc::server

#endif  // TSC_SERVER_DATA_API_H_
