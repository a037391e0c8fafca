#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "core/disk_backed.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "core/similarity.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "server/server.h"
#include "storage/quant.h"
#include "storage/row_source.h"
#include "storage/row_store.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tsc::cli {
namespace {

constexpr char kUsage[] = R"(tsctool — compress time-sequence datasets for ad hoc querying

usage: tsctool <command> [flags]

commands:
  generate   --kind=phone|stocks|patients|lowrank --rows=N --cols=M --seed=S
             --out=FILE          (.csv for text, anything else binary)
  compress   --input=FILE --out=MODEL --space=PCT [--method=svdd|svd]
             [--quant=f64|f32|int16|int8]
             [--max-candidates=K] [--threads=N]
             [--build=exact|randomized] [--seed=S] [--oversample=P]
             [--power-iters=Q]
             (--max-candidates evaluates K evenly spaced k instead of
              every k in 1..k_max, the k_opt search ablation; 0 = all.
              --quant quantizes the U row store; default f64.
              --build=randomized swaps pass 1 for the streaming sketch
              PCA — O(M*(k+p)) memory at any N, deterministic per --seed;
              binary inputs stream off disk without loading the matrix)
  info       --model=MODEL
  query      --model=MODEL (--q="avg rows=0:9 cols=1,3:5" | --cell=i,j)
             [--threads=N]
  sql        --model=MODEL --query="SELECT sum(value) WHERE row IN 0:99"
             [--explain] [--analyze] [--threads=N]
  topk       --model=MODEL --count=10 [--cols=a:b] (largest column-range sums)
  similar    --model=MODEL --row=I --count=5 (nearest sequences in SVD space)
  evaluate   --model=MODEL --input=FILE
  reconstruct --model=MODEL --out=FILE.csv [--rows=COUNT]
  stats      --port=N [--host=IP]
                          (a running server's /metrics table and
                           /healthz?verbose=1, see docs/server.md)
  serve      --model=MODEL [--port=7496] [--bind=ADDR] [--max-concurrent=N]
             [--queue=N]
             [--timeout-ms=MS] [--duration-s=S]
             (--bind defaults to loopback; anything else exposes an
              UNAUTHENTICATED api — see docs/server.md)
             [--cache-blocks=N] [--keys=FILE] [--slowlog=K]
                          (HTTP query server on 127.0.0.1; endpoints
                           /api/v1/data, /api/v1/query, /api/v1/cell,
                           /api/v1/debug/slow, /metrics, /healthz —
                           see docs/server.md. --keys names rows for
                           rows=~regex filters; default row<i>)
  slowlog    --port=N [--host=IP] [--format=table|json]
                          (the K slowest requests on a running server,
                           with per-request cost vectors)
  help

global flags (any command):
  --metrics-out=FILE   write a JSON metric snapshot on exit
  --trace-out=FILE     record spans, write Chrome trace JSON on exit
)";

/// Builds a FlagParser from string args (argv-style).
FlagParser MakeFlags(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  static thread_local std::vector<std::string> storage;
  storage.assign(args.begin(), args.end());
  argv.push_back(nullptr);  // program-name slot
  for (auto& s : storage) argv.push_back(s.data());
  static char prog[] = "tsctool";
  argv[0] = prog;
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

StatusOr<Dataset> LoadDataset(const std::string& path) {
  if (EndsWith(path, ".csv")) return LoadCsv(path, path);
  return LoadBinary(path, path);
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  if (EndsWith(path, ".csv")) return SaveCsv(dataset, path);
  return SaveBinary(dataset, path);
}

/// A model file holds either an SVD or an SVDD model; dispatch on magic.
struct LoadedModel {
  std::unique_ptr<CompressedStore> store;
  std::string kind;
  // Extra introspection, populated per kind.
  std::size_t k = 0;
  std::size_t delta_count = 0;
  std::uint64_t row_index_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
};

StatusOr<LoadedModel> LoadModel(const std::string& path) {
  LoadedModel loaded;
  // Try SVDD first (its magic differs, so the wrong reader fails fast).
  if (auto svdd = SvddModel::LoadFromFile(path); svdd.ok()) {
    loaded.kind = "svdd";
    loaded.k = svdd->k();
    const std::shared_ptr<const DeltaIndex> deltas = svdd->deltas();
    loaded.delta_count = deltas->size();
    loaded.row_index_bytes = deltas->RowIndexBytes();
    loaded.checkpoint_bytes = deltas->CheckpointBytes();
    loaded.store = std::make_unique<SvddModel>(std::move(*svdd));
    return loaded;
  }
  if (auto svd = SvdModel::LoadFromFile(path); svd.ok()) {
    loaded.kind = "svd";
    loaded.k = svd->k();
    loaded.store = std::make_unique<SvdModel>(std::move(*svd));
    return loaded;
  }
  return Status::IoError("not a tsctool model file: " + path);
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

int CmdGenerate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  const std::string kind = flags.GetString("kind", "phone");
  const std::string path = flags.GetString("out", "");
  if (path.empty()) return Fail(err, Status::InvalidArgument("--out required"));
  const std::size_t rows = static_cast<std::size_t>(flags.GetInt("rows", 1000));
  const std::size_t cols = static_cast<std::size_t>(flags.GetInt("cols", 366));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  Dataset dataset;
  if (kind == "phone") {
    PhoneDatasetConfig config;
    config.num_customers = rows;
    config.num_days = cols;
    config.seed = seed;
    dataset = GeneratePhoneDataset(config);
  } else if (kind == "stocks") {
    StockDatasetConfig config;
    config.num_stocks = rows;
    config.num_days = cols;
    config.seed = seed;
    dataset = GenerateStockDataset(config);
  } else if (kind == "patients") {
    PatientDatasetConfig config;
    config.num_patients = rows;
    config.num_hours = cols;
    config.seed = seed;
    dataset = GeneratePatientDataset(config);
  } else if (kind == "lowrank") {
    const std::size_t rank =
        static_cast<std::size_t>(flags.GetInt("rank", 5));
    dataset = GenerateLowRankDataset(rows, cols, rank, seed);
  } else {
    return Fail(err, Status::InvalidArgument("unknown --kind: " + kind));
  }
  const Status status = SaveDataset(dataset, path);
  if (!status.ok()) return Fail(err, status);
  out << "wrote " << dataset.rows() << "x" << dataset.cols() << " " << kind
      << " dataset to " << path << "\n";
  return 0;
}

int CmdCompress(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  const std::string input = flags.GetString("input", "");
  const std::string model_path = flags.GetString("out", "");
  if (input.empty() || model_path.empty()) {
    return Fail(err,
                Status::InvalidArgument("--input and --out are required"));
  }
  const double space = flags.GetDouble("space", 10.0);
  const std::string method = flags.GetString("method", "svdd");
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 1));
  const auto quant = ParseQuantScheme(flags.GetString("quant", "f64"));
  if (!quant.ok()) return Fail(err, quant.status());
  const std::string build_name = flags.GetString("build", "exact");
  if (build_name != "exact" && build_name != "randomized") {
    return Fail(err, Status::InvalidArgument(
                         "--build must be exact or randomized, got " +
                         build_name));
  }
  const bool randomized = build_name == "randomized";
  if (randomized && method != "svdd") {
    return Fail(err, Status::InvalidArgument(
                         "--build=randomized needs --method=svdd"));
  }
  const std::uint64_t sketch_seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::size_t oversample =
      static_cast<std::size_t>(flags.GetInt("oversample", 8));
  const std::size_t power_iters =
      static_cast<std::size_t>(flags.GetInt("power-iters", 0));

  // svdd builds stream binary row stores straight off the file: the
  // build passes ARE the out-of-core algorithm, so compress never needs
  // an N x M resident matrix (the whole point of the randomized engine
  // at 10M rows). CSV inputs and the svd path still load the dataset up
  // front.
  std::optional<Dataset> dataset;
  std::optional<FileRowSource> file_source;
  std::optional<MatrixRowSource> matrix_source;
  RowSource* source = nullptr;
  const bool stream_input = method == "svdd" && !EndsWith(input, ".csv");
  if (stream_input) {
    auto reader = RowStoreReader::Open(input);
    if (!reader.ok()) return Fail(err, reader.status());
    file_source.emplace(std::move(*reader));
    source = &*file_source;
  } else {
    auto loaded = LoadDataset(input);
    if (!loaded.ok()) return Fail(err, loaded.status());
    dataset.emplace(std::move(*loaded));
    matrix_source.emplace(&dataset->values);
    source = &*matrix_source;
  }
  Timer timer;

  if (method == "svdd") {
    SvddBuildOptions options;
    options.space_percent = space;
    options.quant = *quant;
    options.max_candidates =
        static_cast<std::size_t>(flags.GetInt("max-candidates", 0));
    options.num_threads = threads;
    options.engine = randomized ? SvddBuildEngine::kRandomized
                                : SvddBuildEngine::kExact;
    options.sketch_seed = sketch_seed;
    options.sketch_oversample = oversample;
    options.power_iterations = power_iters;
    SvddBuildDiagnostics diag;
    auto model = BuildSvddModel(source, options, &diag);
    if (!model.ok()) return Fail(err, model.status());
    const Status save = model->SaveToFile(model_path);
    if (!save.ok()) return Fail(err, save);
    const std::uint64_t passes =
        source->rows() > 0 ? diag.rows_streamed / source->rows() : 0;
    out << "svdd model (" << diag.engine << "): k_opt=" << diag.k_opt
        << " (k_max=" << diag.k_max << "), deltas=" << model->delta_count()
        << ", quant=" << QuantSchemeName(*quant) << ", "
        << TablePrinter::Percent(model->SpacePercent()) << " of original, "
        << TablePrinter::Num(timer.ElapsedSeconds(), 3) << "s, " << passes
        << " passes\n";
    out << "build:";
    for (std::size_t pass = 0; pass < diag.pass_seconds.size(); ++pass) {
      out << (pass == 0 ? " " : ", ") << "pass" << pass + 1 << " "
          << TablePrinter::Num(diag.pass_seconds[pass], 3) << "s/"
          << std::llround(diag.pass_end_rss_mb[pass]) << "MiB";
    }
    out << ", peak " << std::llround(diag.peak_rss_mb) << "MiB; "
        << diag.resolved_candidates << "/" << diag.candidate_ks.size()
        << " candidates resolved exactly; pass-2 outlier state "
        << TablePrinter::Num(
               static_cast<double>(diag.pass2_outlier_state_bytes) /
                   (1024.0 * 1024.0),
               3)
        << "MiB\n";
  } else if (method == "svd") {
    SpaceBudget budget =
        SpaceBudget::FromPercent(dataset->rows(), dataset->cols(), space);
    budget.u_quant = *quant;
    SvdBuildOptions options;
    options.k = budget.MaxK();
    options.num_threads = threads;
    if (options.k == 0) {
      return Fail(err, Status::ResourceExhausted("budget below 1 component"));
    }
    auto model = BuildSvdModel(source, options);
    if (!model.ok()) return Fail(err, model.status());
    // Plain SVD has no delta table to absorb the quantization error, but
    // the snapped model still reports it honestly through evaluate.
    model->ApplyQuantization(*quant);
    const Status save = model->SaveToFile(model_path);
    if (!save.ok()) return Fail(err, save);
    out << "svd model: k=" << model->k() << ", "
        << TablePrinter::Percent(model->SpacePercent()) << " of original, "
        << TablePrinter::Num(timer.ElapsedSeconds(), 3) << "s, 2 passes\n";
  } else {
    return Fail(err, Status::InvalidArgument("unknown --method: " + method));
  }
  out << "model written to " << model_path << "\n";
  return 0;
}

/// Pulls the SvdModel view out of a loaded model of either kind.
const SvdModel* SvdViewOf(const LoadedModel& loaded) {
  if (loaded.kind == "svdd") {
    return &static_cast<const SvddModel*>(loaded.store.get())->svd();
  }
  return static_cast<const SvdModel*>(loaded.store.get());
}

int CmdInfo(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const CompressedStore& store = *loaded->store;
  out << "kind:        " << loaded->kind << "\n"
      << "sequences:   " << store.rows() << "\n"
      << "length:      " << store.cols() << "\n"
      << "components:  " << loaded->k << "\n";
  if (loaded->kind == "svdd") {
    out << "deltas:      " << loaded->delta_count << "\n"
        << "row index:   " << loaded->row_index_bytes << " bytes\n"
        << "checkpoints: " << loaded->checkpoint_bytes
        << " bytes of column sums every " << DeltaIndex::kCheckpointRows
        << " rows\n";
  }
  // U is charged at its row stride in the file; V and the eigenvalues
  // stay in memory as doubles.
  const SvdModel& svd = *SvdViewOf(*loaded);
  out << "u rows:      " << QuantSchemeName(svd.quant_scheme()) << ", "
      << QuantRowStride(svd.quant_scheme(), svd.k()) << " bytes/row\n"
      << "v + lambda:  " << (svd.k() * svd.cols() + svd.k()) * sizeof(double)
      << " bytes\n";
  out << "bytes:       " << store.CompressedBytes() << "\n"
      << "space:       " << TablePrinter::Percent(store.SpacePercent())
      << " of original\n";
  return 0;
}

int CmdQuery(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const CompressedStore& store = *loaded->store;

  if (flags.Has("cell")) {
    const std::string cell = flags.GetString("cell", "");
    const std::size_t comma = cell.find(',');
    if (comma == std::string::npos) {
      return Fail(err, Status::InvalidArgument("--cell expects i,j"));
    }
    const std::size_t i = std::strtoull(cell.c_str(), nullptr, 10);
    const std::size_t j = std::strtoull(cell.c_str() + comma + 1, nullptr, 10);
    if (i >= store.rows() || j >= store.cols()) {
      return Fail(err, Status::OutOfRange("cell out of range"));
    }
    out << store.ReconstructCell(i, j) << "\n";
    return 0;
  }
  const std::string spec = flags.GetString("q", "");
  if (spec.empty()) {
    return Fail(err, Status::InvalidArgument("--q or --cell required"));
  }
  auto query = ParseRegionQuery(spec);
  if (!query.ok()) return Fail(err, query.status());
  for (const std::size_t r : query->row_ids) {
    if (r >= store.rows()) return Fail(err, Status::OutOfRange("row id"));
  }
  for (const std::size_t c : query->col_ids) {
    if (c >= store.cols()) return Fail(err, Status::OutOfRange("col id"));
  }
  // Run through the executor's batched (optionally multi-threaded) scan;
  // the fixed-shard reduction makes the result identical for any
  // --threads value. Like a SQL selection, the ids form a set: the plan
  // holds them as sorted runs, so a repeated id counts once.
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 1));
  const QueryExecutor executor(&store, threads);
  QueryPlan plan;
  plan.row_runs = CoalesceIds(query->row_ids);
  plan.col_runs = CoalesceIds(query->col_ids);
  plan.aggregates = {query->fn};
  plan.strategies = {ExecutionStrategy::kRowReconstruction};
  plan.group_by = GroupBy::kNone;
  auto result = executor.ExecutePlan(plan);
  if (!result.ok()) return Fail(err, result.status());
  out << result->ValueAt(0, 0) << "\n";
  return 0;
}

int CmdSql(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const std::string text = flags.GetString("query", "");
  if (text.empty()) return Fail(err, Status::InvalidArgument("--query required"));

  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 1));
  // SVDD models get the compressed-domain fast path.
  const QueryExecutor executor(loaded->store.get(), threads);
  if (flags.GetBool("explain", false)) {
    auto plan = executor.Explain(text);
    if (!plan.ok()) return Fail(err, plan.status());
    out << *plan;
    return 0;
  }
  auto result = executor.Execute(text);
  if (!result.ok()) return Fail(err, result.status());
  for (const double value : result->values) out << value << "\n";
  if (flags.GetBool("analyze", false)) out << result->AnalyzeFooter();
  return 0;
}

/// Parses "a:b" (or "a") into the column id list [a, b].
StatusOr<std::vector<std::size_t>> ParseColRange(const std::string& text,
                                                 std::size_t num_cols) {
  std::size_t lo = 0;
  std::size_t hi = num_cols - 1;
  if (!text.empty()) {
    const std::size_t colon = text.find(':');
    lo = std::strtoull(text.c_str(), nullptr, 10);
    hi = colon == std::string::npos
             ? lo
             : std::strtoull(text.c_str() + colon + 1, nullptr, 10);
  }
  if (lo > hi || hi >= num_cols) {
    return Status::OutOfRange("bad column range: " + text);
  }
  std::vector<std::size_t> cols;
  for (std::size_t j = lo; j <= hi; ++j) cols.push_back(j);
  return cols;
}

int CmdTopK(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const std::size_t count =
      static_cast<std::size_t>(flags.GetInt("count", 10));
  auto cols =
      ParseColRange(flags.GetString("cols", ""), loaded->store->cols());
  if (!cols.ok()) return Fail(err, cols.status());

  std::vector<ScoredRow> top;
  if (loaded->kind == "svdd") {
    top = TopRowsBySum(*static_cast<const SvddModel*>(loaded->store.get()),
                       *cols, count);
  } else {
    top = TopRowsBySum(*SvdViewOf(*loaded), *cols, count);
  }
  out << "top " << top.size() << " sequences by sum over " << cols->size()
      << " columns:\n";
  for (const ScoredRow& r : top) {
    out << "  row " << r.row << "  sum " << TablePrinter::Num(r.score)
        << "\n";
  }
  return 0;
}

int CmdSimilar(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const std::size_t row = static_cast<std::size_t>(flags.GetInt("row", 0));
  const std::size_t count =
      static_cast<std::size_t>(flags.GetInt("count", 5));
  auto neighbors = NearestRowsTo(*SvdViewOf(*loaded), row, count);
  if (!neighbors.ok()) return Fail(err, neighbors.status());
  out << "nearest sequences to row " << row << " (SVD-space distance):\n";
  for (const ScoredRow& r : neighbors->neighbors) {
    out << "  row " << r.row << "  distance " << TablePrinter::Num(r.score)
        << "\n";
  }
  return 0;
}

int CmdEvaluate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  auto dataset = LoadDataset(flags.GetString("input", ""));
  if (!dataset.ok()) return Fail(err, dataset.status());
  if (dataset->rows() != loaded->store->rows() ||
      dataset->cols() != loaded->store->cols()) {
    return Fail(err, Status::InvalidArgument("model/dataset shape mismatch"));
  }
  const ErrorReport report = EvaluateErrors(dataset->values, *loaded->store);
  out << "rmspe:            " << TablePrinter::Percent(100.0 * report.rmspe)
      << "\n"
      << "mean |err|:       " << TablePrinter::Num(report.mean_abs_error)
      << "\n"
      << "median |err|:     " << TablePrinter::Num(report.median_abs_error)
      << "\n"
      << "worst |err|:      " << TablePrinter::Num(report.max_abs_error)
      << "\n"
      << "worst normalized: "
      << TablePrinter::Percent(100.0 * report.max_normalized_error) << "\n";
  return 0;
}

int CmdReconstruct(const FlagParser& flags, std::ostream& out,
                   std::ostream& err) {
  auto loaded = LoadModel(flags.GetString("model", ""));
  if (!loaded.ok()) return Fail(err, loaded.status());
  const std::string path = flags.GetString("out", "");
  if (path.empty()) return Fail(err, Status::InvalidArgument("--out required"));
  const CompressedStore& store = *loaded->store;
  std::size_t rows = store.rows();
  if (flags.Has("rows")) {
    rows = std::min<std::size_t>(
        rows, static_cast<std::size_t>(flags.GetInt("rows", 0)));
  }
  Dataset dataset;
  dataset.name = "reconstruction";
  dataset.values = Matrix(rows, store.cols());
  // Batched reconstruction in row blocks: one blocked U x (Lambda V^T)
  // product (plus one delta sweep for SVDD) per block instead of a
  // cell-by-cell loop.
  std::vector<std::size_t> all_cols(store.cols());
  for (std::size_t j = 0; j < store.cols(); ++j) all_cols[j] = j;
  constexpr std::size_t kBlockRows = 64;
  Matrix block;
  std::vector<std::size_t> block_rows;
  for (std::size_t i = 0; i < rows; i += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, rows - i);
    block_rows.resize(count);
    for (std::size_t r = 0; r < count; ++r) block_rows[r] = i + r;
    const Status region = store.ReconstructRegion(block_rows, all_cols, &block);
    if (!region.ok()) return Fail(err, region);
    for (std::size_t r = 0; r < count; ++r) {
      const std::span<const double> src = block.Row(r);
      std::copy(src.begin(), src.end(), dataset.values.Row(i + r).begin());
    }
  }
  const Status status = SaveCsv(dataset, path);
  if (!status.ok()) return Fail(err, status);
  out << "wrote " << rows << "x" << store.cols() << " reconstruction to "
      << path << "\n";
  return 0;
}

/// Prints a running server's registry table and its verbose health
/// document.
int CmdStats(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const int port = flags.GetInt("port", 0);
  if (port <= 0) return Fail(err, Status::InvalidArgument("--port required"));
  const std::string host = flags.GetString("host", "127.0.0.1");
  auto metrics = server::HttpGet(host, port, "/metrics?format=table");
  if (!metrics.ok()) return Fail(err, metrics.status());
  if (metrics->status != 200) {
    return Fail(err, Status::IoError("server returned HTTP " +
                                     std::to_string(metrics->status)));
  }
  out << metrics->body;
  if (auto health = server::HttpGet(host, port, "/healthz?verbose=1");
      health.ok() && health->status == 200) {
    out << "\n" << health->body << "\n";
  }
  return 0;
}

std::atomic<bool> g_serve_interrupted{false};

void ServeSignalHandler(int) { g_serve_interrupted.store(true); }

/// Runs the concurrent query server over a model file until SIGINT /
/// SIGTERM (or --duration-s elapses). With --cache-blocks > 0 an SVDD
/// model file is opened as the disk layout and serves U's rows from the
/// file through one shared BlockCache; otherwise the model is loaded and
/// serves from memory. Either way SVDD linear aggregates run in the
/// compressed domain, and nothing is written.
int CmdServe(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::size_t cache_blocks =
      static_cast<std::size_t>(flags.GetInt("cache-blocks", 0));
  std::unique_ptr<CompressedStore> memory_store;
  std::optional<DiskBackedStore> disk_store;
  const CompressedStore* store = nullptr;
  if (cache_blocks > 0) {
    // Only an SVDD model file opens as the disk layout.
    DiskBackedOptions disk_options;
    disk_options.cache_blocks = cache_blocks;
    auto opened =
        DiskBackedStore::Open(flags.GetString("model", ""), disk_options);
    if (!opened.ok()) return Fail(err, opened.status());
    disk_store.emplace(std::move(*opened));
    store = &disk_store->model();
    out << "serving from disk layout (" << cache_blocks << "-block cache)\n";
  } else {
    auto loaded = LoadModel(flags.GetString("model", ""));
    if (!loaded.ok()) return Fail(err, loaded.status());
    memory_store = std::move(loaded->store);
    store = memory_store.get();
  }

  server::ServerOptions options;
  options.port = flags.GetInt("port", 7496);
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  // Loopback keeps the server private to this machine; anything else
  // (0.0.0.0, a LAN address) serves an UNAUTHENTICATED query API to
  // whoever can reach the socket. Warn loudly — there is no auth layer.
  if (options.bind_address.rfind("127.", 0) != 0) {
    err << "warning: --bind=" << options.bind_address
        << " exposes an unauthenticated query API beyond loopback; "
           "front it with an authenticating proxy (see docs/server.md)\n";
  }
  options.max_concurrent =
      static_cast<std::size_t>(flags.GetInt("max-concurrent", 0));
  options.max_queue = static_cast<std::size_t>(flags.GetInt("queue", 64));
  options.timeout_ms =
      static_cast<std::uint64_t>(flags.GetInt("timeout-ms", 2000));
  options.slowlog_capacity =
      static_cast<std::size_t>(flags.GetInt("slowlog", 64));

  // Row-key map backing rows=~regex dimension filters: --keys=FILE (one
  // key per line, at least one per row) or synthetic row<i> names.
  if (const std::string keys_path = flags.GetString("keys", "");
      !keys_path.empty()) {
    std::ifstream keys_in(keys_path);
    if (!keys_in) {
      return Fail(err,
                  Status::IoError("cannot open --keys file: " + keys_path));
    }
    std::string line;
    while (std::getline(keys_in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      options.row_keys.push_back(line);
    }
    if (options.row_keys.size() < store->rows()) {
      return Fail(err, Status::InvalidArgument(
                           "--keys file names fewer keys than rows"));
    }
  } else {
    options.row_keys.reserve(store->rows());
    for (std::size_t i = 0; i < store->rows(); ++i) {
      options.row_keys.push_back("row" + std::to_string(i));
    }
  }

  // The executor is shared by every connection, so it must not carry an
  // internal scan pool (concurrency comes from concurrent requests).
  const QueryExecutor executor(store, 1);

  server::QueryServer query_server(&executor, store, options);
  Status status = query_server.Start();
  if (status.ok()) {
    out << "listening on " << options.bind_address << ":"
        << query_server.port() << " ("
        << store->rows() << " x " << store->cols() << " "
        << store->MethodName() << ")\n";
    out.flush();
    g_serve_interrupted.store(false);
    std::signal(SIGINT, ServeSignalHandler);
    std::signal(SIGTERM, ServeSignalHandler);
    const int duration_s = flags.GetInt("duration-s", 0);
    const auto started = std::chrono::steady_clock::now();
    while (!g_serve_interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (duration_s > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::seconds(duration_s)) {
        break;
      }
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    query_server.Stop();
    out << "served " << query_server.connections_accepted()
        << " connections\n";
  }
  return status.ok() ? 0 : Fail(err, status);
}

/// Fetches the slow-query log from a running server: the K slowest
/// requests with their cost vectors, as a table (default) or raw JSON.
int CmdSlowlog(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  const int port = flags.GetInt("port", 7496);
  const std::string host = flags.GetString("host", "127.0.0.1");
  const std::string format = flags.GetString("format", "table");
  if (format != "table" && format != "json") {
    return Fail(err,
                Status::InvalidArgument("--format must be table or json"));
  }
  auto result =
      server::HttpGet(host, port, "/api/v1/debug/slow?format=" + format);
  if (!result.ok()) return Fail(err, result.status());
  if (result->status != 200) {
    return Fail(err, Status::IoError("server returned HTTP " +
                                     std::to_string(result->status) + ": " +
                                     result->body));
  }
  out << result->body;
  if (!result->body.empty() && result->body.back() != '\n') out << "\n";
  return 0;
}

/// A command and the flags it accepts, besides the global ones.
struct Command {
  std::string_view name;
  int (*run)(const FlagParser&, std::ostream&, std::ostream&);
  std::vector<std::string_view> flags;
};

const std::vector<Command> kCommands = {
    {"generate", CmdGenerate, {"kind", "out", "rows", "cols", "seed", "rank"}},
    {"compress",
     CmdCompress,
     {"input", "out", "space", "method", "quant", "max-candidates", "threads",
      "build", "seed", "oversample", "power-iters"}},
    {"info", CmdInfo, {"model"}},
    {"query", CmdQuery, {"model", "q", "cell", "threads"}},
    {"sql",
     CmdSql,
     {"model", "query", "explain", "analyze", "threads"}},
    {"topk", CmdTopK, {"model", "count", "cols"}},
    {"similar", CmdSimilar, {"model", "row", "count"}},
    {"evaluate", CmdEvaluate, {"model", "input"}},
    {"reconstruct", CmdReconstruct, {"model", "out", "rows"}},
    {"stats", CmdStats, {"port", "host"}},
    {"serve",
     CmdServe,
     {"model", "port", "bind", "max-concurrent", "queue", "timeout-ms",
      "duration-s", "cache-blocks", "keys", "slowlog"}},
    {"slowlog", CmdSlowlog, {"port", "host", "format"}},
};

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  const auto entry = std::find_if(
      kCommands.begin(), kCommands.end(),
      [&command](const Command& c) { return command == c.name; });
  if (entry == kCommands.end()) {
    err << "error: unknown command '" << command << "'\n" << kUsage;
    return 1;
  }
  const FlagParser flags(
      MakeFlags(std::vector<std::string>(args.begin() + 1, args.end())));
  // A misspelled or retired flag would otherwise be ignored, and the
  // command would run with the default in its place.
  for (const std::string& name : flags.names()) {
    if (name == "metrics-out" || name == "trace-out" ||
        std::find(entry->flags.begin(), entry->flags.end(), name) !=
            entry->flags.end()) {
      continue;
    }
    return Fail(err, Status::InvalidArgument("unknown flag --" + name +
                                             " for " + command));
  }

  // Global observability flags, honored by every command.
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Default().Enable();

  const int code = entry->run(flags, out, err);

  if (!trace_out.empty()) {
    obs::TraceRecorder::Default().Disable();
    const Status status =
        obs::TraceRecorder::Default().ExportChromeTrace(trace_out);
    if (!status.ok()) return Fail(err, status);
    out << "trace written to " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    const Status status = obs::TakeSnapshot().WriteJsonFile(metrics_out);
    if (!status.ok()) return Fail(err, status);
    out << "metrics written to " << metrics_out << "\n";
  }
  return code;
}

}  // namespace tsc::cli
