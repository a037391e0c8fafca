// Microbenchmarks (google-benchmark) for the operations the paper's
// complexity claims rest on:
//   - single-cell reconstruction is O(k), independent of N and M;
//   - row reconstruction is O(k * M);
//   - a delta-index probe is a binary search inside one row's run;
//   - planning a point query costs O(#ranges), independent of N;
//   - a disk-backed cell read is one block access plus O(k) arithmetic;
//   - a dashboard max panel by block bound reconstructs a fraction of
//     the cells the scan does (stddev over the same panel);
//   - a one-row max query is one row's reconstruction and its extremes;
// and for what the server adds on top of an answer:
//   - writing a 366-group GROUP BY answer as its full HTTP response.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/bench_datasets.h"
#include "common/json_reporter.h"
#include "core/disk_backed.h"
#include "data/generators.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/data_api.h"
#include "server/http.h"
#include "storage/cached_row_reader.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace tsc::bench {
namespace {

/// Shared fixture data, built once per (N, k) shape.
struct Built {
  Matrix data;
  SvddModel model;
};

Built BuildFor(std::size_t n, std::size_t m, std::size_t k) {
  PhoneDatasetConfig config;
  config.num_customers = n;
  config.num_days = m;
  config.seed = 3;
  Built built;
  built.data = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&built.data);
  SvddBuildOptions options;
  options.space_percent = 100.0;  // roomy; forced_k decides the rank
  options.forced_k = k;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  built.model = std::move(*model);
  return built;
}

void BM_CellReconstructionVsK(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  static Matrix data = [] {
    PhoneDatasetConfig config;
    config.num_customers = 500;
    config.num_days = 128;
    return GeneratePhoneDataset(config).values;
  }();
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 200.0;
  options.forced_k = k;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  Rng rng(1);
  for (auto _ : state) {
    const std::size_t i = rng.UniformUint64(data.rows());
    const std::size_t j = rng.UniformUint64(data.cols());
    benchmark::DoNotOptimize(model->ReconstructCell(i, j));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CellReconstructionVsK)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_CellReconstructionVsN(benchmark::State& state) {
  // O(k) claim: time must NOT grow with N at fixed k.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Built built = BuildFor(n, 64, 8);
  Rng rng(2);
  for (auto _ : state) {
    const std::size_t i = rng.UniformUint64(built.data.rows());
    const std::size_t j = rng.UniformUint64(built.data.cols());
    benchmark::DoNotOptimize(built.model.ReconstructCell(i, j));
  }
}
BENCHMARK(BM_CellReconstructionVsN)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RowReconstruction(benchmark::State& state) {
  const Built built = BuildFor(512, 366, static_cast<std::size_t>(state.range(0)));
  std::vector<double> row(built.data.cols());
  Rng rng(3);
  for (auto _ : state) {
    built.model.ReconstructRow(rng.UniformUint64(built.data.rows()), row);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_RowReconstruction)->Arg(4)->Arg(16)->Arg(36);

void BM_DeltaIndexProbe(benchmark::State& state) {
  // 100k deltas over a 100000 x 366 matrix (the phone100K shape at about
  // a sixth of its delta count); every other probe is a stored cell.
  constexpr std::size_t kRows = 100000;
  constexpr std::size_t kCols = 366;
  Rng rng(4);
  std::vector<DeltaEntry> entries;
  for (int i = 0; i < 100000; ++i) {
    entries.push_back({rng.UniformUint64(kRows * kCols), 1.0});
  }
  std::sort(entries.begin(), entries.end(),
            [](const DeltaEntry& a, const DeltaEntry& b) {
              return a.key < b.key;
            });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const DeltaEntry& a, const DeltaEntry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  auto index = DeltaIndex::Build(kRows, kCols, entries);
  TSC_CHECK_OK(index.status());
  Rng probe(5);
  std::size_t idx = 0;
  for (auto _ : state) {
    const std::uint64_t key =
        (idx++ & 1) != 0 ? entries[probe.UniformUint64(entries.size())].key
                         : probe.UniformUint64(kRows * kCols);
    benchmark::DoNotOptimize(index->Find(key / kCols, key % kCols));
  }
}
BENCHMARK(BM_DeltaIndexProbe);

void BM_PlanPointQuery(benchmark::State& state) {
  // Resolving "row IN 1234" against N rows: the plan is one run whatever
  // N is, so the time should stay flat across the arguments.
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto ast = ParseQuery("SELECT max(value) WHERE row IN 1234");
  TSC_CHECK_OK(ast.status());
  for (auto _ : state) {
    auto plan = PlanQuery(*ast, rows, 366, 20);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanPointQuery)->RangeMultiplier(10)->Range(1000, 10000000);

void BM_DiskBackedCellRead(benchmark::State& state) {
  const Built built = BuildFor(2000, 128, 12);
  TempSvddStore temp(built.model, "micro_disk");
  DiskBackedStore& store = temp.store();
  Rng rng(7);
  for (auto _ : state) {
    const auto value = store.ReconstructCell(rng.UniformUint64(2000),
                                             rng.UniformUint64(128));
    benchmark::DoNotOptimize(value);
  }
  state.counters["disk_accesses_per_read"] =
      static_cast<double>(store.disk_accesses()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DiskBackedCellRead);

void BM_CachedRowReadSkewed(benchmark::State& state) {
  // Buffer pool under a Zipf-hot workload: most reads hit the cache, so
  // the per-read disk cost drops far below 1 access.
  const std::size_t cache_blocks = static_cast<std::size_t>(state.range(0));
  const Built built = BuildFor(4000, 64, 8);
  const TempMatrixFile temp(built.data, "micro_cached");
  auto raw = RowStoreReader::Open(temp.path());
  TSC_CHECK_OK(raw.status());
  CachedRowReader reader(std::move(*raw), cache_blocks);
  std::vector<double> row(64);
  Rng rng(8);
  for (auto _ : state) {
    const std::size_t i = rng.Bernoulli(0.9)
                              ? rng.UniformUint64(32)     // hot rows
                              : rng.UniformUint64(4000);  // cold tail
    TSC_CHECK_OK(reader.ReadRow(i, row));
    benchmark::DoNotOptimize(row.data());
  }
  state.counters["disk_accesses_per_read"] =
      static_cast<double>(reader.disk_accesses()) /
      static_cast<double>(state.iterations());
  state.counters["cache_hit_rate"] = reader.cache().HitRate();
}
BENCHMARK(BM_CachedRowReadSkewed)->Arg(4)->Arg(64)->Arg(1024);

void BM_SvddBuild(benchmark::State& state) {
  PhoneDatasetConfig config;
  config.num_customers = static_cast<std::size_t>(state.range(0));
  config.num_days = 128;
  const Matrix data = GeneratePhoneDataset(config).values;
  for (auto _ : state) {
    MatrixRowSource source(&data);
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.max_candidates = 8;
    auto model = BuildSvddModel(&source, options);
    benchmark::DoNotOptimize(model);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}
BENCHMARK(BM_SvddBuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

/// A phone model of `rows` rows x 366 days at 5%, built once per size.
const SvddModel& PhoneModel(std::size_t rows) {
  static std::map<std::size_t, std::unique_ptr<SvddModel>> models;
  std::unique_ptr<SvddModel>& model = models[rows];
  if (model == nullptr) {
    const Dataset phone = MakePhoneDataset(rows);
    auto built = BuildSvddAtSpace(phone.values, 5.0, /*max_candidates=*/8);
    TSC_CHECK_OK(built.status());
    model = std::make_unique<SvddModel>(std::move(*built));
  }
  return *model;
}

/// The dashboard max panel: `max(value) ... GROUP BY col` over 1000 rows
/// x 30 columns, one of 48 seeded panels per iteration, of a phone model
/// with `range(0)` rows x 366 days at 5%. `range(1)` = 1 times stddev
/// over the same panels instead, which only the scan answers: the cost
/// the block bound saves. Reports the share of each panel's cells
/// reconstructed.
void BM_MaxPanel(benchmark::State& state) {
  constexpr std::size_t kHeight = 1000;
  constexpr std::size_t kWidth = 30;
  constexpr std::size_t kPanels = 48;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const bool scan = state.range(1) != 0;
  const SvddModel* model = &PhoneModel(rows);
  const QueryExecutor executor(model);
  Rng rng(42);
  std::vector<QueryPlan> plans;
  for (std::size_t p = 0; p < kPanels; ++p) {
    const std::size_t row0 = rng.UniformUint64(rows - kHeight + 1);
    const std::size_t col0 = rng.UniformUint64(model->cols() - kWidth + 1);
    QueryAst ast;
    ast.aggregates = {scan ? AggregateFn::kStddev : AggregateFn::kMax};
    ast.constraints = {{/*is_row=*/true, {{row0, row0 + kHeight - 1}}},
                       {/*is_row=*/false, {{col0, col0 + kWidth - 1}}}};
    ast.group_by = GroupBy::kCol;
    auto plan = executor.Plan(ast);
    TSC_CHECK_OK(plan.status());
    plans.push_back(std::move(*plan));
  }
  std::uint64_t cells = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = executor.ExecutePlan(plans[next++ % kPanels]);
    TSC_CHECK_OK(result.status());
    cells += scan ? result->rows_reconstructed * kWidth : result->bound_cells;
    benchmark::DoNotOptimize(result->values.data());
  }
  state.SetLabel(scan ? "stddev: the scan" : "max: block bound");
  state.counters["cells_reconstructed_fraction"] =
      static_cast<double>(cells) /
      static_cast<double>(state.iterations() * kHeight * kWidth);
}
BENCHMARK(BM_MaxPanel)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 0})
    ->Unit(benchmark::kMicrosecond);

/// `SELECT max(value) WHERE row IN r` at one of 256 seeded rows per
/// iteration, on PhoneModel(range(0)): a one-row scan of every day,
/// the single-row class of the dashboard and point workloads.
void BM_RowMaxQuery(benchmark::State& state) {
  constexpr std::size_t kQueries = 256;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const SvddModel* model = &PhoneModel(rows);
  const QueryExecutor executor(model);
  Rng rng(44);
  std::vector<QueryPlan> plans;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::size_t row = rng.UniformUint64(rows);
    QueryAst ast;
    ast.aggregates = {AggregateFn::kMax};
    ast.constraints = {{/*is_row=*/true, {{row, row}}}};
    auto plan = executor.Plan(ast);
    TSC_CHECK_OK(plan.status());
    plans.push_back(std::move(*plan));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = executor.ExecutePlan(plans[next++ % kQueries]);
    TSC_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->values.data());
  }
}
BENCHMARK(BM_RowMaxQuery)->Arg(100000)->Unit(benchmark::kMicrosecond);

/// The dashboard's compressed-domain panels, one of 48 seeded panels per
/// iteration, on PhoneModel(range(0)): `range(1)` = 0 is `sum(value)
/// GROUP BY col` over every day, `range(1)` = 1 the avg panel's
/// `avg(value) GROUP BY col` over 90 days (what /api/v1/data runs for
/// it). Each panel is min(50000, rows / 2) rows high at a seeded start,
/// so its ends fall anywhere between the delta index's column-sum
/// checkpoints (DESIGN.md section 17).
void BM_GroupByPanel(benchmark::State& state) {
  constexpr std::size_t kPanels = 48;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const bool avg = state.range(1) != 0;
  const SvddModel* model = &PhoneModel(rows);
  const QueryExecutor executor(model);
  const std::size_t height = std::min<std::size_t>(50000, rows / 2);
  const std::size_t width = avg ? 90 : model->cols();
  Rng rng(43);
  std::vector<QueryPlan> plans;
  for (std::size_t p = 0; p < kPanels; ++p) {
    const std::size_t row0 = rng.UniformUint64(rows - height + 1);
    const std::size_t col0 = rng.UniformUint64(model->cols() - width + 1);
    QueryAst ast;
    ast.aggregates = {avg ? AggregateFn::kAvg : AggregateFn::kSum};
    ast.constraints = {{/*is_row=*/true, {{row0, row0 + height - 1}}},
                       {/*is_row=*/false, {{col0, col0 + width - 1}}}};
    ast.group_by = GroupBy::kCol;
    auto plan = executor.Plan(ast);
    TSC_CHECK_OK(plan.status());
    plans.push_back(std::move(*plan));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = executor.ExecutePlan(plans[next++ % kPanels]);
    TSC_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->values.data());
  }
  state.SetLabel(avg ? "avg, 90 days" : "sum, every day");
}
BENCHMARK(BM_GroupByPanel)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMicrosecond);

/// A `GROUP BY col` answer over the phone data's 366 days, written the
/// way /api/v1/query?format=json serves it: the JSON body (366 doubles
/// and their group keys) and the HTTP response around it.
void BM_SerializeGroupByResponse(benchmark::State& state) {
  constexpr std::size_t kGroups = 366;
  Rng rng(11);
  QueryResult result;
  result.aggregate_count = 1;
  result.compressed_domain_aggregates = 1;
  result.exec_us = 41.25;
  for (std::size_t g = 0; g < kGroups; ++g) {
    // Per-day sums: full-mantissa doubles of a few hundred thousand.
    result.values.push_back(2e5 + 5e4 * rng.Gaussian());
    result.group_keys.push_back(g);
  }
  const server::HeaderList headers = {{"X-Trace-Id", "9f86d081884c7d65"}};
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string response = server::SerializeResponse(
        200, "application/json", server::QueryResultToJson(result),
        /*keep_alive=*/true, headers);
    bytes = response.size();
    benchmark::DoNotOptimize(response.data());
    benchmark::ClobberMemory();
  }
  state.counters["response_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeGroupByResponse);

/// Console output as usual, plus an in-memory copy of every run so a
/// --json report can be written after the fact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    std::int64_t iterations;
    double real_ns_per_iter;
    double cpu_ns_per_iter;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      captured_.push_back({run.benchmark_name(), run.iterations,
                           run.real_accumulated_time * 1e9 / iters,
                           run.cpu_accumulated_time * 1e9 / iters});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

}  // namespace
}  // namespace tsc::bench

// BENCHMARK_MAIN with a --json FILE flag (stripped before google-benchmark
// sees the argument list) writing the shared bench report schema.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      kept.push_back(argv[i]);
    }
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;

  tsc::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    tsc::bench::JsonReporter report(
        "micro_reconstruction",
        {"name", "iterations", "real_ns_per_iter", "cpu_ns_per_iter"});
    for (const auto& run : reporter.captured()) {
      report.AddRow({run.name, std::to_string(run.iterations),
                     tsc::TablePrinter::Num(run.real_ns_per_iter, 6),
                     tsc::TablePrinter::Num(run.cpu_ns_per_iter, 6)});
    }
    TSC_CHECK_OK(report.WriteFile(json_path));
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}
