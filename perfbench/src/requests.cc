#include "requests.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "http_client.h"
#include "server/data_api.h"
#include "util/json_writer.h"

namespace perfbench {
namespace {

/// Copies of each class per deck, in Op order: cell, row, region, avg,
/// max, groupby. The main mixes are the shares of each workload's design
/// (disk_point 70:25:5 cell:row:region, mem_dashboard 5:3:2
/// avg:max:groupby); the probe mixes deal the other three classes one
/// copy each, so every class's p50 is measured on both workloads.
constexpr std::array<int, kOpCount> kDiskPointMix = {70, 25, 5, 0, 0, 0};
constexpr std::array<int, kOpCount> kDiskPointProbe = {0, 0, 0, 1, 1, 1};
constexpr std::array<int, kOpCount> kDashboardMix = {0, 0, 0, 5, 3, 2};
constexpr std::array<int, kOpCount> kDashboardProbe = {1, 1, 1, 0, 0, 0};
/// Distinct panels per heavy dashboard class. The panels and the order of
/// the rows' popularity (the Zipf permutation) are the workload's
/// definition, drawn once from a fixed seed like the data: a panel's cost
/// depends on how its ranges align with the rollup's segment trees, and a
/// row's on how many deltas it holds, so drawing them per seed would move
/// every p50 with the seed. The seed drives the requests drawn from them.
constexpr std::size_t kPanelsPerClass = 48;
constexpr std::uint64_t kWorkloadSeed = 42;

std::string DataTarget(const std::map<std::string, std::string>& params) {
  std::string target = "/api/v1/data?";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) target += '&';
    first = false;
    target += key + "=" + value;
  }
  return target;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kCell: return "cell";
    case Op::kRow: return "row";
    case Op::kRegion: return "region";
    case Op::kAvg: return "avg";
    case Op::kMax: return "max";
    case Op::kGroupBy: return "groupby";
  }
  return "?";
}

tsc::StatusOr<RequestGenerator> RequestGenerator::Create(
    const std::string& workload, Mix mix, std::size_t rows, std::size_t cols) {
  RequestGenerator gen;
  const bool main = mix == Mix::kMain;
  if (workload == "disk_point") {
    gen.weights_ = main ? kDiskPointMix : kDiskPointProbe;
  } else if (workload == "mem_dashboard") {
    gen.weights_ = main ? kDashboardMix : kDashboardProbe;
    gen.dashboard_ = true;
  } else {
    return tsc::Status::InvalidArgument("unknown workload: " + workload);
  }
  if (rows < 2 || cols < 2) {
    return tsc::Status::InvalidArgument("matrix too small to query");
  }
  gen.rows_ = rows;
  gen.cols_ = cols;
  gen.zipf_cdf_.resize(rows);
  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    gen.zipf_cdf_[r] = total;
  }
  for (double& c : gen.zipf_cdf_) c /= total;
  gen.row_perm_.resize(rows);
  std::iota(gen.row_perm_.begin(), gen.row_perm_.end(), std::size_t{0});
  tsc::Rng rng(kWorkloadSeed ^ 0x5eedba5eull);
  rng.Shuffle(&gen.row_perm_);
  if (gen.dashboard_) {
    tsc::Rng panel_rng(kWorkloadSeed);
    for (std::size_t p = 0; p < kPanelsPerClass; ++p) {
      gen.panels_[static_cast<int>(Op::kAvg)].push_back(
          gen.MakeData(Op::kAvg, "avg", 50000, 90, 30, false, &panel_rng));
      gen.panels_[static_cast<int>(Op::kMax)].push_back(
          gen.MakeData(Op::kMax, "max", 1000, 30, 30, false, &panel_rng));
      gen.panels_[static_cast<int>(Op::kGroupBy)].push_back(
          gen.MakeGroupBy(50000, false, &panel_rng));
    }
  }
  return gen;
}

std::size_t RequestGenerator::SkewedRow(tsc::Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), rows_ - 1);
  return row_perm_[rank];
}

std::size_t RequestGenerator::RangeStart(std::size_t height, bool skewed,
                                         tsc::Rng* rng) const {
  const std::size_t span = rows_ - height + 1;
  return skewed ? SkewedRow(rng) % span
                : static_cast<std::size_t>(rng->UniformUint64(span));
}

Request RequestGenerator::MakeCell(tsc::Rng* rng) const {
  Request req;
  req.op = Op::kCell;
  req.row = SkewedRow(rng);
  req.col = static_cast<std::size_t>(rng->UniformUint64(cols_));
  req.target = "/api/v1/cell?row=" + std::to_string(req.row) +
               "&col=" + std::to_string(req.col);
  return req;
}

Request RequestGenerator::MakeRow(tsc::Rng* rng) const {
  Request req;
  req.op = Op::kRow;
  req.sql = "SELECT max(value) WHERE row IN " + std::to_string(SkewedRow(rng));
  req.target = "/api/v1/query?format=json&q=" + UrlEncode(req.sql);
  return req;
}

Request RequestGenerator::MakeData(Op op, const char* group,
                                   std::size_t height, std::size_t width,
                                   std::size_t points, bool skewed,
                                   tsc::Rng* rng) const {
  height = std::min(height, rows_);
  width = std::min(width, cols_);
  const std::size_t row0 = RangeStart(height, skewed, rng);
  const std::size_t col0 =
      static_cast<std::size_t>(rng->UniformUint64(cols_ - width + 1));
  Request req;
  req.op = op;
  req.params["after"] = std::to_string(col0);
  req.params["before"] = std::to_string(col0 + width - 1);
  req.params["points"] = std::to_string(std::min(points, width));
  req.params["group"] = group;
  req.params["rows"] =
      std::to_string(row0) + ":" + std::to_string(row0 + height - 1);
  req.target = DataTarget(req.params);
  return req;
}

Request RequestGenerator::MakeGroupBy(std::size_t height, bool skewed,
                                      tsc::Rng* rng) const {
  height = std::min(height, rows_);
  const std::size_t row0 = RangeStart(height, skewed, rng);
  Request req;
  req.op = Op::kGroupBy;
  req.sql = "SELECT sum(value) WHERE row IN " + std::to_string(row0) + ":" +
            std::to_string(row0 + height - 1) + " GROUP BY col";
  req.target = "/api/v1/query?format=json&q=" + UrlEncode(req.sql);
  return req;
}

Request RequestGenerator::Next(ClientStream* stream) const {
  if (stream->next == stream->deck.size()) {
    stream->deck.clear();
    for (std::size_t op = 0; op < kOpCount; ++op) {
      stream->deck.insert(stream->deck.end(), weights_[op], static_cast<Op>(op));
    }
    stream->rng.Shuffle(&stream->deck);
    stream->next = 0;
  }
  const std::size_t op = static_cast<std::size_t>(stream->deck[stream->next++]);
  tsc::Rng* rng = &stream->rng;
  switch (static_cast<Op>(op)) {
    case Op::kCell: return MakeCell(rng);
    case Op::kRow: return MakeRow(rng);
    case Op::kRegion:
      // A dashboard drill-down sums a customer segment's recent quarter;
      // a point lookup sums a small block.
      return dashboard_
                 ? MakeData(Op::kRegion, "sum", 1000, 90, 30, true, rng)
                 : MakeData(Op::kRegion, "sum", 100, 30, 1, true, rng);
    default: break;
  }
  if (dashboard_) {
    // Refreshes cycle through the panels, from a seeded starting panel,
    // so every run polls each panel about equally often.
    const std::vector<Request>& pool = panels_[op];
    return pool[(stream->first_panel + stream->polled[op]++) % pool.size()];
  }
  // Point workload: small drill-down versions of the dashboard shapes.
  switch (static_cast<Op>(op)) {
    case Op::kAvg: return MakeData(Op::kAvg, "avg", 100, 90, 30, true, rng);
    case Op::kMax: return MakeData(Op::kMax, "max", 20, 30, 30, true, rng);
    default: return MakeGroupBy(100, true, rng);
  }
}

tsc::StatusOr<std::unique_ptr<Oracle>> Oracle::Open(
    const std::string& model_path, std::size_t cache_blocks,
    const std::string& scratch_prefix) {
  auto model = tsc::SvddModel::LoadFromFile(model_path);
  if (!model.ok()) return model.status();
  std::unique_ptr<Oracle> oracle(new Oracle(std::move(*model)));
  if (cache_blocks > 0) {
    oracle->u_path_ = scratch_prefix + ".u";
    oracle->sidecar_path_ = scratch_prefix + ".sidecar";
    TSC_RETURN_IF_ERROR(tsc::ExportSvddToDisk(
        oracle->model_, oracle->u_path_, oracle->sidecar_path_));
    tsc::DiskBackedOptions options;
    options.cache_blocks = cache_blocks;
    auto disk = tsc::DiskBackedStore::Open(oracle->u_path_,
                                           oracle->sidecar_path_, options);
    if (!disk.ok()) return disk.status();
    oracle->disk_.emplace(std::move(*disk));
    oracle->disk_view_.emplace(&*oracle->disk_);
    oracle->executor_.emplace(&*oracle->disk_view_, 1);
  } else {
    oracle->executor_.emplace(&oracle->model_, 1, true);
  }
  return oracle;
}

Oracle::~Oracle() {
  executor_.reset();
  disk_view_.reset();
  disk_.reset();
  if (!u_path_.empty()) {
    std::remove(u_path_.c_str());
    std::remove(sidecar_path_.c_str());
  }
}

tsc::StatusOr<std::string> Oracle::Expected(const Request& request) const {
  switch (request.op) {
    case Op::kCell: {
      tsc::JsonWriter json;
      json.BeginObject();
      json.KV("row", static_cast<std::uint64_t>(request.row));
      json.KV("col", static_cast<std::uint64_t>(request.col));
      json.KV("value", model_.ReconstructCell(request.row, request.col));
      json.EndObject();
      return json.str();
    }
    case Op::kRow:
    case Op::kGroupBy: {
      // The server's format=json answer, field for field, up to exec_us.
      auto result = executor_->Execute(request.sql);
      if (!result.ok()) return result.status();
      tsc::JsonWriter json;
      json.BeginObject();
      json.Key("values").BeginArray();
      for (const double value : result->values) json.Value(value);
      json.EndArray();
      json.Key("group_keys").BeginArray();
      for (const std::size_t key : result->group_keys) {
        json.Value(static_cast<std::uint64_t>(key));
      }
      json.EndArray();
      json.KV("aggregate_count",
              static_cast<std::uint64_t>(result->aggregate_count));
      json.KV("rows_reconstructed", result->rows_reconstructed);
      json.KV("compressed_domain_aggregates",
              result->compressed_domain_aggregates);
      json.EndObject();
      return json.str();
    }
    default: {
      auto resolved = tsc::server::ResolveDataRequest(
          request.params, executor_->rows(), executor_->cols(),
          tsc::server::DataApiLimits{});
      if (!resolved.ok()) return resolved.status();
      auto result = tsc::server::ExecuteDataRequest(*executor_, *resolved);
      if (!result.ok()) return result.status();
      return tsc::server::DataResultToJson(*result);
    }
  }
}

std::string Oracle::Comparable(const Request& request, std::string body) {
  if (request.op != Op::kRow && request.op != Op::kGroupBy) return body;
  const std::size_t timing = body.rfind(",\"exec_us\":");
  if (timing != std::string::npos) {
    body.resize(timing);
    body += '}';
  }
  return body;
}

}  // namespace perfbench
