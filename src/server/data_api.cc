#include "server/data_api.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/query.h"
#include "util/json_writer.h"
#include "util/lite_regex.h"

namespace tsc::server {
namespace {

/// Strict signed integer parse: the whole string must be one number.
StatusOr<long long> ParseInt(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE) return Status::InvalidArgument("number out of range");
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed number: '" +
                                   JsonWriter::Escape(text) + "'");
  }
  return value;
}

StatusOr<std::size_t> ParseIndex(const std::string& text) {
  TSC_ASSIGN_OR_RETURN(const long long value, ParseInt(text));
  if (value < 0) return Status::InvalidArgument("negative index");
  return static_cast<std::size_t>(value);
}

/// The bucket reduction over per-column aggregates. Exact for all four
/// group methods (see ExecuteDataRequest's doc).
double ReduceBucket(AggregateFn fn, const double* values, std::size_t n) {
  double acc = values[0];
  for (std::size_t i = 1; i < n; ++i) {
    switch (fn) {
      case AggregateFn::kSum:
      case AggregateFn::kAvg:
        acc += values[i];
        break;
      case AggregateFn::kMin:
        acc = std::min(acc, values[i]);
        break;
      case AggregateFn::kMax:
        acc = std::max(acc, values[i]);
        break;
      default:
        break;
    }
  }
  if (fn == AggregateFn::kAvg) acc /= static_cast<double>(n);
  return acc;
}

/// The request's row selection as normalized runs: overlapping and
/// adjacent ranges merge, so every row counts once, exactly as in a SQL
/// plan.
std::vector<IdRange> RowRuns(const DataRequest& request,
                             std::size_t num_rows) {
  if (request.rows.empty()) return {{0, num_rows - 1}};
  return NormalizeRanges(request.rows);
}

}  // namespace

StatusOr<std::vector<IdRange>> ParseRowsParam(const std::string& text,
                                              std::size_t num_rows,
                                              std::size_t max_ranges) {
  std::vector<IdRange> ranges;
  std::stringstream stream(text);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    if (ranges.size() >= max_ranges) {
      return Status::InvalidArgument("too many row ranges");
    }
    IdRange range;
    const std::size_t colon = piece.find(':');
    if (colon == std::string::npos) {
      TSC_ASSIGN_OR_RETURN(range.lo, ParseIndex(piece));
      range.hi = range.lo;
    } else {
      TSC_ASSIGN_OR_RETURN(range.lo, ParseIndex(piece.substr(0, colon)));
      TSC_ASSIGN_OR_RETURN(range.hi, ParseIndex(piece.substr(colon + 1)));
    }
    if (range.lo > range.hi) {
      return Status::InvalidArgument("row range lo > hi");
    }
    if (range.hi >= num_rows) {
      return Status::InvalidArgument("row index out of range");
    }
    ranges.push_back(range);
  }
  if (ranges.empty()) return Status::InvalidArgument("empty rows selection");
  return ranges;
}

StatusOr<DataRequest> ResolveDataRequest(
    const std::map<std::string, std::string>& params, std::size_t num_rows,
    std::size_t num_cols, const DataApiLimits& limits,
    const std::vector<std::string>* row_keys) {
  static const std::string kEmpty;
  if (num_cols == 0 || num_rows == 0) {
    return Status::FailedPrecondition("empty matrix");
  }
  DataRequest request;
  const long long last = static_cast<long long>(num_cols) - 1;

  // before: absolute column, or <= 0 relative to the newest column.
  long long before = last;
  if (auto it = params.find("before"); it != params.end()) {
    TSC_ASSIGN_OR_RETURN(const long long raw, ParseInt(it->second));
    before = raw > 0 ? raw : last + raw;
  }
  if (before < 0 || before > last) {
    return Status::InvalidArgument("before outside the column range");
  }

  // after: absolute column, or < 0 meaning "-after columns ending at
  // before" (clamped at column 0, netdata-style).
  long long after = 0;
  if (auto it = params.find("after"); it != params.end()) {
    TSC_ASSIGN_OR_RETURN(const long long raw, ParseInt(it->second));
    after = raw >= 0 ? raw : std::max<long long>(0, before + raw + 1);
  }
  if (after > before) {
    return Status::InvalidArgument("after is past before");
  }
  request.after = static_cast<std::size_t>(after);
  request.before = static_cast<std::size_t>(before);
  const std::size_t window = request.before - request.after + 1;

  // points: output bucket count, capped and clamped to the window.
  std::size_t points = 0;  // 0 = one point per column
  if (auto it = params.find("points"); it != params.end()) {
    TSC_ASSIGN_OR_RETURN(points, ParseIndex(it->second));
    if (points > limits.max_points) {
      return Status::InvalidArgument("points exceeds the server cap");
    }
  }
  if (points == 0 || points > window) points = window;
  if (points > limits.max_points) {
    return Status::InvalidArgument(
        "window too wide; pass points= to downsample");
  }
  request.points = points;

  // group: the bucket reduction method.
  if (auto it = params.find("group"); it != params.end()) {
    TSC_ASSIGN_OR_RETURN(request.group, ParseAggregateFn(it->second));
    if (request.group != AggregateFn::kAvg &&
        request.group != AggregateFn::kMin &&
        request.group != AggregateFn::kMax &&
        request.group != AggregateFn::kSum) {
      return Status::InvalidArgument("group must be avg, min, max or sum");
    }
  }

  // rows: selection, default everything. A leading '~' switches from
  // index ranges to a key-regex over the server's row-key map.
  if (auto it = params.find("rows"); it != params.end()) {
    if (!it->second.empty() && it->second.front() == '~') {
      if (row_keys == nullptr || row_keys->empty()) {
        return Status::InvalidArgument(
            "rows=~pattern needs a row-key map (serve with --keys or "
            "synthetic keys)");
      }
      if (row_keys->size() < num_rows) {
        return Status::FailedPrecondition("row-key map shorter than matrix");
      }
      TSC_ASSIGN_OR_RETURN(request.rows,
                           ResolveRowsPattern(it->second.substr(1),
                                              *row_keys, num_rows));
      // The coalesced match ranges are bounded by the row count, not
      // max_ranges: capping them would silently drop matched rows.
    } else {
      TSC_ASSIGN_OR_RETURN(
          request.rows,
          ParseRowsParam(it->second, num_rows, limits.max_ranges));
    }
  }
  return request;
}

StatusOr<std::vector<IdRange>> ResolveRowsPattern(
    const std::string& pattern, const std::vector<std::string>& row_keys,
    std::size_t num_rows) {
  constexpr std::size_t kMaxPatternBytes = 256;
  if (pattern.empty()) return Status::InvalidArgument("empty rows pattern");
  if (pattern.size() > kMaxPatternBytes) {
    return Status::InvalidArgument("rows pattern too long");
  }
  // LiteRegex, not std::regex: patterns come off the wire, and a
  // backtracking engine lets a short catastrophic pattern (`(a+)+$`)
  // pin a worker thread while it holds an admission permit. LiteRegex
  // matching is linear in key bytes no matter the pattern.
  auto compiled = LiteRegex::Compile(pattern);
  if (!compiled.ok()) {
    return Status::InvalidArgument("malformed rows pattern: '" +
                                   JsonWriter::Escape(pattern) +
                                   "': " + compiled.status().message());
  }
  LiteRegex regex = std::move(*compiled);
  // Only the first num_rows keys name real rows; surplus keys in an
  // oversized map must not mint out-of-range indices.
  const std::size_t limit = std::min(row_keys.size(), num_rows);
  std::vector<IdRange> ranges;
  for (std::size_t i = 0; i < limit; ++i) {
    if (!regex.Search(row_keys[i])) continue;
    if (!ranges.empty() && ranges.back().hi + 1 == i) {
      ranges.back().hi = i;  // extend the run
    } else {
      ranges.push_back(IdRange{i, i});
    }
  }
  if (ranges.empty()) {
    return Status::InvalidArgument("rows pattern matched no keys");
  }
  return ranges;
}

StatusOr<DataResult> ExecuteDataRequest(const QueryExecutor& executor,
                                        const DataRequest& request) {
  const std::vector<IdRange> row_runs = RowRuns(request, executor.rows());
  // One per-column aggregate pass, planned like the SQL query
  // "SELECT <group>(value) WHERE row IN <rows> AND col IN <after>:<before>
  // GROUP BY col", so the planner routes sum/avg through the compressed
  // domain: the selected rows' U mass once, then one dot per column.
  QueryAst ast;
  ast.aggregates = {request.group};
  ast.constraints = {{/*is_row=*/true, row_runs},
                     {/*is_row=*/false, {{request.after, request.before}}}};
  ast.group_by = GroupBy::kCol;
  TSC_ASSIGN_OR_RETURN(const QueryPlan plan, executor.Plan(ast));
  TSC_ASSIGN_OR_RETURN(const QueryResult per_col, executor.ExecutePlan(plan));
  const std::size_t window = request.before - request.after + 1;
  if (per_col.values.size() != window) {
    return Status::Internal("per-column pass returned wrong group count");
  }

  DataResult result;
  result.request = request;
  result.rows_selected = RangesSize(row_runs);
  result.exec_us = per_col.exec_us;
  result.compressed_domain_aggregates = per_col.compressed_domain_aggregates;
  result.data.reserve(request.points);
  for (std::size_t b = 0; b < request.points; ++b) {
    const std::size_t lo = b * window / request.points;
    const std::size_t hi = (b + 1) * window / request.points;  // exclusive
    DataPoint point;
    point.t = request.after + lo;
    point.value =
        ReduceBucket(request.group, per_col.values.data() + lo, hi - lo);
    result.data.push_back(point);
  }
  return result;
}

std::string DataResultToJson(const DataResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.KV("api", std::uint64_t{1});
  json.KV("after", static_cast<std::uint64_t>(result.request.after));
  json.KV("before", static_cast<std::uint64_t>(result.request.before));
  json.KV("points", static_cast<std::uint64_t>(result.request.points));
  json.KV("group", AggregateFnName(result.request.group));
  json.KV("rows_selected", static_cast<std::uint64_t>(result.rows_selected));
  json.KV("compressed_domain_aggregates",
          result.compressed_domain_aggregates);
  json.Key("labels").BeginArray();
  json.Value("t").Value("value");
  json.EndArray();
  json.Key("data").BeginArray();
  for (const DataPoint& point : result.data) {
    json.BeginArray();
    json.Value(static_cast<std::uint64_t>(point.t)).Value(point.value);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  return json.Release();
}

std::string DataResultToCsv(const DataResult& result) {
  std::string out = "t,value\n";
  char digits[24];
  for (const DataPoint& point : result.data) {
    out.append(digits,
               std::to_chars(digits, digits + sizeof(digits), point.t).ptr);
    out += ',';
    AppendDefaultFormat(point.value, &out);
    out += '\n';
  }
  return out;
}

std::string QueryResultToJson(const QueryResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("values").BeginArray();
  for (const double value : result.values) json.Value(value);
  json.EndArray();
  json.Key("group_keys").BeginArray();
  for (const std::size_t key : result.group_keys) {
    json.Value(static_cast<std::uint64_t>(key));
  }
  json.EndArray();
  json.KV("aggregate_count",
          static_cast<std::uint64_t>(result.aggregate_count));
  json.KV("rows_reconstructed", result.rows_reconstructed);
  json.KV("compressed_domain_aggregates",
          result.compressed_domain_aggregates);
  json.KV("exec_us", result.exec_us);
  json.EndObject();
  return json.Release();
}

void AppendDefaultFormat(double value, std::string* out) {
  char buffer[32];
  out->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 6)
                          .ptr);
}

}  // namespace tsc::server
