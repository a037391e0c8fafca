#include "cli/cli.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "../core/bloom_section_files.h"
#include "core/svdd_compressor.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "server/http.h"
#include "server/server.h"

namespace tsc::cli {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult RunTool(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  // Per-process suffix: ctest -j runs each discovered test in its own
  // process, and every process re-runs SetUpTestSuite — fixed names
  // would have concurrent processes truncating each other's files.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

TEST(CliTest, HelpAndNoArgs) {
  const CliResult help = RunTool({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  const CliResult none = RunTool({});
  EXPECT_EQ(none.exit_code, 1);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult result = RunTool({"frobnicate"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenerateBinaryAndCsv) {
  const std::string bin = TempPath("cli_phone.mat");
  const CliResult r1 = RunTool({"generate", "--kind=phone", "--rows=50",
                            "--cols=30", "--out=" + bin});
  EXPECT_EQ(r1.exit_code, 0) << r1.err;
  const auto loaded = LoadBinary(bin, "x");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 50u);
  EXPECT_EQ(loaded->cols(), 30u);

  const std::string csv = TempPath("cli_stocks.csv");
  const CliResult r2 = RunTool({"generate", "--kind=stocks", "--rows=20",
                            "--cols=16", "--out=" + csv});
  EXPECT_EQ(r2.exit_code, 0) << r2.err;
  const auto loaded_csv = LoadCsv(csv, "y");
  ASSERT_TRUE(loaded_csv.ok());
  EXPECT_EQ(loaded_csv->rows(), 20u);
}

TEST(CliTest, GenerateRejectsBadKind) {
  const CliResult result =
      RunTool({"generate", "--kind=nonsense", "--out=" + TempPath("x.mat")});
  EXPECT_EQ(result.exit_code, 1);
}

TEST(CliTest, GenerateRequiresOut) {
  EXPECT_EQ(RunTool({"generate", "--kind=phone"}).exit_code, 1);
}

/// Fixture running the full generate -> compress -> query pipeline once.
class CliPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = new std::string(TempPath("pipe_data.mat"));
    model_path_ = new std::string(TempPath("pipe_model.bin"));
    ASSERT_EQ(RunTool({"generate", "--kind=phone", "--rows=200", "--cols=40",
                   "--seed=5", "--out=" + *data_path_})
                  .exit_code,
              0);
    ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_,
                   "--out=" + *model_path_, "--space=15"})
                  .exit_code,
              0);
  }
  static void TearDownTestSuite() {
    delete data_path_;
    delete model_path_;
  }
  static std::string* data_path_;
  static std::string* model_path_;
};

std::string* CliPipelineTest::data_path_ = nullptr;
std::string* CliPipelineTest::model_path_ = nullptr;

TEST_F(CliPipelineTest, InfoShowsModel) {
  const CliResult result = RunTool({"info", "--model=" + *model_path_});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("kind:        svdd"), std::string::npos);
  EXPECT_NE(result.out.find("sequences:   200"), std::string::npos);
  EXPECT_NE(result.out.find("length:      40"), std::string::npos);
  // perfbench reads the components line; the delta index reports its
  // row CSR and its column-sum checkpoints, and there is no column
  // orientation or Bloom filter left to report.
  EXPECT_NE(result.out.find("components:  "), std::string::npos);
  EXPECT_NE(result.out.find("row index:   "), std::string::npos);
  EXPECT_NE(result.out.find("checkpoints: "), std::string::npos);
  EXPECT_EQ(result.out.find("col index:"), std::string::npos);
  EXPECT_EQ(result.out.find("bloom"), std::string::npos);

  // The serving footprint: U's encoding and row stride (8 bytes a
  // component, or a 16-byte meta and one padded byte a component), and
  // the memory-resident V + eigenvalues (k x 40 + k doubles).
  for (const std::string quant : {"f64", "int8"}) {
    SCOPED_TRACE(quant);
    const std::string model = TempPath("info_" + quant + ".model");
    ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                       "--space=15", "--quant=" + quant})
                  .exit_code,
              0);
    const CliResult info = RunTool({"info", "--model=" + model});
    ASSERT_EQ(info.exit_code, 0) << info.err;
    const std::string components = "components:  ";
    const std::size_t at = info.out.find(components);
    ASSERT_NE(at, std::string::npos) << info.out;
    const std::size_t k = std::stoull(info.out.substr(at + components.size()));
    ASSERT_GT(k, 0u);
    const std::size_t row_bytes = quant == "f64" ? 8 * k : 16 + (k + 7) / 8 * 8;
    EXPECT_NE(info.out.find("u rows:      " + quant + ", " +
                            std::to_string(row_bytes) + " bytes/row\n"),
              std::string::npos)
        << info.out;
    EXPECT_NE(info.out.find("v + lambda:  " +
                            std::to_string((k * 40 + k) * sizeof(double)) +
                            " bytes\n"),
              std::string::npos)
        << info.out;
  }
}

TEST_F(CliPipelineTest, CellQueryMatchesAggregate) {
  const CliResult cell =
      RunTool({"query", "--model=" + *model_path_, "--cell=3,7"});
  ASSERT_EQ(cell.exit_code, 0) << cell.err;
  const CliResult agg = RunTool(
      {"query", "--model=" + *model_path_, "--q=sum rows=3 cols=7"});
  ASSERT_EQ(agg.exit_code, 0) << agg.err;
  EXPECT_NEAR(std::stod(cell.out), std::stod(agg.out), 1e-9);
}

TEST_F(CliPipelineTest, QueryValidatesRanges) {
  EXPECT_EQ(RunTool({"query", "--model=" + *model_path_, "--cell=999,0"})
                .exit_code,
            1);
  EXPECT_EQ(RunTool({"query", "--model=" + *model_path_,
                 "--q=avg rows=0 cols=400"})
                .exit_code,
            1);
  EXPECT_EQ(RunTool({"query", "--model=" + *model_path_}).exit_code, 1);
}

TEST_F(CliPipelineTest, EvaluateReportsErrors) {
  const CliResult result = RunTool(
      {"evaluate", "--model=" + *model_path_, "--input=" + *data_path_});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("rmspe:"), std::string::npos);
  EXPECT_NE(result.out.find("worst normalized:"), std::string::npos);
}

TEST_F(CliPipelineTest, ReconstructWritesCsv) {
  const std::string out_path = TempPath("pipe_recon.csv");
  const CliResult result = RunTool({"reconstruct", "--model=" + *model_path_,
                                "--out=" + out_path, "--rows=10"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  const auto recon = LoadCsv(out_path, "r");
  ASSERT_TRUE(recon.ok());
  EXPECT_EQ(recon->rows(), 10u);
  EXPECT_EQ(recon->cols(), 40u);
}

TEST_F(CliPipelineTest, SqlQueryAndExplain) {
  const CliResult sql =
      RunTool({"sql", "--model=" + *model_path_,
               "--query=SELECT count(*) WHERE row IN 0:9 AND col IN 0:3"});
  ASSERT_EQ(sql.exit_code, 0) << sql.err;
  EXPECT_NEAR(std::stod(sql.out), 40.0, 1e-9);

  const CliResult explain =
      RunTool({"sql", "--model=" + *model_path_, "--explain",
               "--query=SELECT sum(value) WHERE row IN 0:9"});
  ASSERT_EQ(explain.exit_code, 0) << explain.err;
  EXPECT_NE(explain.out.find("compressed-domain"), std::string::npos);

  // The compressed-domain sum agrees with the same region summed by the
  // row-reconstruction scan of `tsctool query` (both print 6 digits).
  const CliResult sum =
      RunTool({"sql", "--model=" + *model_path_,
               "--query=SELECT sum(value) WHERE row IN 0:9 AND col IN 0:3"});
  ASSERT_EQ(sum.exit_code, 0) << sum.err;
  const CliResult scanned = RunTool(
      {"query", "--model=" + *model_path_, "--q=sum rows=0:9 cols=0:3"});
  ASSERT_EQ(scanned.exit_code, 0) << scanned.err;
  EXPECT_NEAR(std::stod(sum.out), std::stod(scanned.out),
              1e-5 * std::abs(std::stod(scanned.out)) + 1e-9);

  EXPECT_EQ(RunTool({"sql", "--model=" + *model_path_,
                     "--query=SELEKT sum(value)"})
                .exit_code,
            1);
  EXPECT_EQ(RunTool({"sql", "--model=" + *model_path_}).exit_code, 1);
}

TEST_F(CliPipelineTest, SqlThreadsFlagDoesNotChangeOutput) {
  // --threads is a deployment knob: the sharded scan must print the
  // exact same bytes at any thread count, stddev included.
  const std::string query =
      "--query=SELECT avg(value), stddev(value) WHERE row IN 0:19 "
      "GROUP BY row";
  const CliResult serial =
      RunTool({"sql", "--model=" + *model_path_, query});
  const CliResult threaded =
      RunTool({"sql", "--model=" + *model_path_, "--threads=4", query});
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  ASSERT_EQ(threaded.exit_code, 0) << threaded.err;
  EXPECT_EQ(serial.out, threaded.out);
}

TEST_F(CliPipelineTest, TopKAndSimilar) {
  const CliResult top = RunTool(
      {"topk", "--model=" + *model_path_, "--count=3", "--cols=0:9"});
  ASSERT_EQ(top.exit_code, 0) << top.err;
  EXPECT_NE(top.out.find("top 3 sequences"), std::string::npos);
  EXPECT_NE(top.out.find("row "), std::string::npos);

  const CliResult similar =
      RunTool({"similar", "--model=" + *model_path_, "--row=7", "--count=4"});
  ASSERT_EQ(similar.exit_code, 0) << similar.err;
  EXPECT_NE(similar.out.find("nearest sequences to row 7"),
            std::string::npos);

  EXPECT_EQ(RunTool({"topk", "--model=" + *model_path_, "--cols=90:10"})
                .exit_code,
            1);
  EXPECT_EQ(RunTool({"similar", "--model=" + *model_path_, "--row=9999"})
                .exit_code,
            1);
}

TEST_F(CliPipelineTest, SvdMethodWorksToo) {
  const std::string model = TempPath("pipe_svd.bin");
  ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                 "--space=10", "--method=svd"})
                .exit_code,
            0);
  const CliResult info = RunTool({"info", "--model=" + model});
  EXPECT_EQ(info.exit_code, 0);
  EXPECT_NE(info.out.find("kind:        svd"), std::string::npos);
}

TEST_F(CliPipelineTest, QuantizedCompress) {
  const std::string model = TempPath("pipe_f32.bin");
  ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                 "--space=10", "--quant=f32"})
                .exit_code,
            0);
  const CliResult info = RunTool({"info", "--model=" + model});
  EXPECT_EQ(info.exit_code, 0) << info.err;
}

/// The word of `out` just before `marker`, e.g. "4.99" in
/// "..., 4.99% of original".
std::string FieldBefore(const std::string& out, const std::string& marker) {
  const std::size_t end = out.find(marker);
  if (end == std::string::npos) return "";
  const std::size_t begin = out.rfind(' ', end) + 1;
  return out.substr(begin, end - begin);
}

// A model file holds what CompressedBytes() charges plus a fixed
// overhead: magics, the b and scheme fields, the lengths of the
// eigenvalue vector, V, U and the delta section, at most 7 bytes of
// padding before a quantized U, the delta flag and the checksum. None
// of it grows with N, k or the delta count.
constexpr std::uintmax_t kMaxOverheadBytes = 128;

/// The `bytes:` figure of `tsctool info`'s output.
std::uintmax_t ChargedBytes(const std::string& info) {
  const std::string bytes_line = "bytes:       ";
  const std::size_t at = info.find(bytes_line);
  EXPECT_NE(at, std::string::npos) << info;
  if (at == std::string::npos) return 0;
  return std::stoull(info.substr(at + bytes_line.size()));
}

TEST_F(CliPipelineTest, EveryEncodingStoresWhatItCharges) {
  for (const std::string quant : {"f64", "f32", "int16", "int8"}) {
    for (const std::string space : {"10", "25"}) {
      SCOPED_TRACE(quant + " at " + space + "%");
      const std::string model = TempPath("charged_" + quant + ".model");
      const CliResult compress =
          RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                   "--space=" + space, "--quant=" + quant});
      ASSERT_EQ(compress.exit_code, 0) << compress.err;
      const CliResult info = RunTool({"info", "--model=" + model});
      ASSERT_EQ(info.exit_code, 0) << info.err;
      const std::string printed = FieldBefore(compress.out, "% of original");
      ASSERT_FALSE(printed.empty()) << compress.out;
      EXPECT_EQ(printed, FieldBefore(info.out, "% of original")) << info.out;
      const std::uintmax_t charged = ChargedBytes(info.out);
      const std::uintmax_t file = std::filesystem::file_size(model);
      ASSERT_GT(file, charged);
      EXPECT_LE(file - charged, kMaxOverheadBytes);
    }
  }
}

TEST_F(CliPipelineTest, LegacyB4FilesAreChargedWhatTheyStore) {
  // The retired b=4 mode wrote 12 as its delta entry size but stored
  // 16-byte entries; the file is charged the 16 it holds.
  const auto model = SvddModel::LoadFromFile(*model_path_);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_GT(model->delta_count(), 0u);
  const std::string legacy = TempPath("legacy_b4.model");
  ASSERT_TRUE(
      WriteModelWithSnappedU(RoundedThroughFloat(*model), legacy, 4).ok());
  const CliResult info = RunTool({"info", "--model=" + legacy});
  ASSERT_EQ(info.exit_code, 0) << info.err;
  const std::uintmax_t charged = ChargedBytes(info.out);
  const std::uintmax_t file = std::filesystem::file_size(legacy);
  ASSERT_GT(file, charged);
  EXPECT_LE(file - charged, kMaxOverheadBytes);
}

TEST_F(CliPipelineTest, SqlAnalyzeAppendsFooter) {
  const CliResult result =
      RunTool({"sql", "--model=" + *model_path_, "--analyze",
               "--query=SELECT sum(value) WHERE row IN 0:9"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("-- groups:"), std::string::npos);
  EXPECT_NE(result.out.find("-- rows reconstructed:"), std::string::npos);
  EXPECT_NE(result.out.find("-- parse"), std::string::npos);
}

TEST_F(CliPipelineTest, StatsPrintsARunningServersMetricsAndHealth) {
  auto model = SvddModel::LoadFromFile(*model_path_);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const QueryExecutor executor(&*model, 1);
  server::QueryServer server(&executor, &*model);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server::HttpGet("127.0.0.1", server.port(),
                              "/api/v1/query?q=SELECT+sum(value)")
                  .ok());
  const CliResult stats =
      RunTool({"stats", "--port=" + std::to_string(server.port())});
  server.Stop();
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  EXPECT_NE(stats.out.find("server.requests"), std::string::npos)
      << stats.out;
  EXPECT_NE(stats.out.find("\"uptime_s\":"), std::string::npos) << stats.out;
  EXPECT_EQ(stats.out.find("slo."), std::string::npos) << stats.out;
  EXPECT_EQ(stats.out.find("\"slo\""), std::string::npos) << stats.out;
  // Without a server to ask there is nothing to print.
  EXPECT_EQ(RunTool({"stats"}).exit_code, 1);
}

TEST_F(CliPipelineTest, DiskServingWritesNoFile) {
  // The model file is the disk layout: serving opens it in place and
  // leaves nothing beside it.
  const std::string dir = TempPath("disk_serving_dir");
  std::filesystem::create_directory(dir);
  const std::string model = dir + "/m.model";
  std::filesystem::copy_file(*model_path_, model,
                             std::filesystem::copy_options::overwrite_existing);
  const CliResult served =
      RunTool({"serve", "--model=" + model, "--port=0", "--duration-s=1",
               "--cache-blocks=8"});
  ASSERT_EQ(served.exit_code, 0) << served.err;
  EXPECT_NE(served.out.find("serving from disk layout"), std::string::npos);
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"m.model"});
  std::filesystem::remove_all(dir);
}

TEST_F(CliPipelineTest, DiskServingRejectsACorruptModelFile) {
  // A byte flipped inside the model file (in U's rows) is caught by the
  // checksum at open: serve fails instead of serving it.
  const std::string model = TempPath("corrupt.model");
  std::filesystem::copy_file(*model_path_, model,
                             std::filesystem::copy_options::overwrite_existing);
  const auto size = std::filesystem::file_size(model);
  {
    std::fstream file(model, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  const CliResult served =
      RunTool({"serve", "--model=" + model, "--port=0", "--duration-s=1",
               "--cache-blocks=8"});
  EXPECT_EQ(served.exit_code, 1);
  EXPECT_NE(served.err.find("checksum"), std::string::npos) << served.err;
  std::filesystem::remove(model);
}

TEST_F(CliPipelineTest, MetricsOutWritesRegistryJson) {
  const std::string metrics_path = TempPath("cli_metrics.json");
  const std::uint64_t queries_before =
      obs::MetricRegistry::Default().GetHistogram("query.exec_us").Count();
  const CliResult result =
      RunTool({"sql", "--model=" + *model_path_,
               "--query=SELECT count(*)",
               "--metrics-out=" + metrics_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics file not written";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"histograms\""), std::string::npos);
#ifndef TSC_OBS_DISABLED
  // The one query's execution time.
  EXPECT_NE(buffer.str().find("\"query.exec_us\":{\"count\":" +
                              std::to_string(queries_before + 1) + ","),
            std::string::npos)
      << buffer.str();
#else
  (void)queries_before;
#endif
}

TEST_F(CliPipelineTest, TraceOutWritesChromeTraceJson) {
  const std::string trace_path = TempPath("cli_trace.json");
  const std::string model = TempPath("trace_model.bin");
  const CliResult result =
      RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
               "--space=10", "--trace-out=" + trace_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
#ifndef TSC_OBS_DISABLED
  // The build's phase spans are in the trace.
  EXPECT_NE(buffer.str().find("svdd.pass1"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"ph\":\"X\""), std::string::npos);
#endif
}

TEST(CliTest, CompressRejectsMissingInput) {
  EXPECT_EQ(RunTool({"compress", "--out=" + TempPath("m.bin")}).exit_code, 1);
  EXPECT_EQ(RunTool({"compress", "--input=/nonexistent.mat",
                 "--out=" + TempPath("m.bin")})
                .exit_code,
            1);
}

TEST(CliTest, UnknownFlagsAreRejectedPerCommand) {
  // Retired options and flags of another command fail by name instead of
  // running with the default in their place; nothing is written.
  const std::string data = TempPath("flags.mat");
  ASSERT_EQ(RunTool({"generate", "--kind=phone", "--rows=200", "--cols=16",
                     "--out=" + data})
                .exit_code,
            0);
  const std::string model = TempPath("flags.model");
  for (const std::string flag :
       {"--shards=4", "--prefetch-depth=8", "--batch-window-us=50",
        "--no-bloom", "--cache-blocks=8", "--spcae=5", "--b=4"}) {
    SCOPED_TRACE(flag);
    const CliResult result = RunTool(
        {"compress", "--input=" + data, "--out=" + model, "--space=20", flag});
    EXPECT_EQ(result.exit_code, 1);
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(result.err.find("INVALID_ARGUMENT"), std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("unknown flag " + name + " for compress"),
              std::string::npos)
        << result.err;
    EXPECT_FALSE(std::ifstream(model).good());
  }
  const CliResult info = RunTool({"info", "--model=" + model, "--threads=2"});
  EXPECT_EQ(info.exit_code, 1);
  EXPECT_NE(info.err.find("unknown flag --threads for info"),
            std::string::npos)
      << info.err;

  // Every command's own flags and the global ones still pass.
  const CliResult ok = RunTool({"compress", "--input=" + data,
                                "--out=" + model, "--space=20", "--threads=2",
                                "--quant=int8", "--max-candidates=4",
                                "--metrics-out=" + TempPath("flags.json")});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;

  // Retired options of commands that would otherwise run: the I/O
  // engine choice, stats' local workload and the SLO window.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", "--model=" + model, "--port=0",
                                 "--duration-s=1", "--cache-blocks=8",
                                 "--io-backend=mmap"},
        std::vector<std::string>{"sql", "--model=" + model,
                                 "--query=SELECT count(*)",
                                 "--io-backend=pread"},
        std::vector<std::string>{"stats", "--port=1", "--queries=10"},
        std::vector<std::string>{"serve", "--model=" + model, "--port=0",
                                 "--duration-s=1", "--slo-window-s=60"}}) {
    SCOPED_TRACE(args.back());
    const CliResult result = RunTool(args);
    EXPECT_EQ(result.exit_code, 1);
    const std::string& flag = args.back();
    EXPECT_NE(result.err.find("unknown flag " + flag.substr(0, flag.find('=')) +
                              " for " + args[0]),
              std::string::npos)
        << result.err;
  }
}

TEST(CliTest, InfoRejectsGarbageFile) {
  const std::string path = TempPath("garbage.bin");
  std::ofstream(path) << "not a model";
  EXPECT_EQ(RunTool({"info", "--model=" + path}).exit_code, 1);
}

TEST(CliTest, EvaluateRejectsShapeMismatch) {
  const std::string data1 = TempPath("shape1.mat");
  const std::string data2 = TempPath("shape2.mat");
  const std::string model = TempPath("shape.binmodel");
  ASSERT_EQ(RunTool({"generate", "--kind=phone", "--rows=60", "--cols=20",
                 "--out=" + data1})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"generate", "--kind=phone", "--rows=30", "--cols=20",
                 "--out=" + data2})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"compress", "--input=" + data1, "--out=" + model,
                 "--space=20"})
                .exit_code,
            0);
  EXPECT_EQ(RunTool({"evaluate", "--model=" + model, "--input=" + data2})
                .exit_code,
            1);
}

}  // namespace
}  // namespace tsc::cli
