#include "cli/cli.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "data/dataset.h"

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
  // perfbench reads the components line; the delta index reports both
  // orientations and there is no Bloom filter left to report.
  EXPECT_NE(result.out.find("components:  "), std::string::npos);
  EXPECT_NE(result.out.find("row index:   "), std::string::npos);
  EXPECT_NE(result.out.find("col index:   "), std::string::npos);
  EXPECT_EQ(result.out.find("bloom"), std::string::npos);
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
  const std::string model = TempPath("pipe_b4.bin");
  ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                 "--space=10", "--b=4"})
                .exit_code,
            0);
  const CliResult info = RunTool({"info", "--model=" + model});
  EXPECT_EQ(info.exit_code, 0) << info.err;
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

TEST_F(CliPipelineTest, StatsServesWorkloadAndPrintsDerivedLines) {
  const CliResult result = RunTool({"stats", "--model=" + *model_path_,
                                    "--queries=200", "--cache-blocks=32"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  // Derived lines come from component counters, so they print in every
  // build flavor (including TSC_OBS_DISABLED).
  EXPECT_NE(result.out.find("cell queries"), std::string::npos);
  EXPECT_NE(result.out.find("disk accesses"), std::string::npos);
  EXPECT_NE(result.out.find("cache hit rate"), std::string::npos);
  EXPECT_NE(result.out.find("delta index:"), std::string::npos);
  EXPECT_EQ(result.out.find("bloom"), std::string::npos);
#ifndef TSC_OBS_DISABLED
  // The registry table follows with the raw instruments.
  EXPECT_NE(result.out.find("delta.lookups"), std::string::npos);
  EXPECT_NE(result.out.find("delta.hits"), std::string::npos);
  EXPECT_NE(result.out.find("query.exec_us"), std::string::npos);
#endif
}

TEST_F(CliPipelineTest, StatsCountsDiskAccessesOfTheCellQueriesOnly) {
  // One cell query reads at most one U block; the SQL aggregates that
  // follow it scan the disk layout but must not land in the per-cell
  // line.
  const CliResult result = RunTool({"stats", "--model=" + *model_path_,
                                    "--queries=1", "--cache-blocks=32"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const std::string label = "disk accesses:";
  const std::size_t at = result.out.find(label);
  ASSERT_NE(at, std::string::npos) << result.out;
  EXPECT_LE(std::stoull(result.out.substr(at + label.size())), 1u)
      << result.out;
}

TEST_F(CliPipelineTest, StatsRequiresSvddModel) {
  const std::string model = TempPath("stats_svd.bin");
  ASSERT_EQ(RunTool({"compress", "--input=" + *data_path_, "--out=" + model,
                 "--space=10", "--method=svd"})
                .exit_code,
            0);
  EXPECT_EQ(RunTool({"stats", "--model=" + model}).exit_code, 1);
}

TEST_F(CliPipelineTest, DiskServingWritesNoFile) {
  // The model file is the disk layout: serving and stats open it in
  // place and leave nothing beside it.
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
  const CliResult stats =
      RunTool({"stats", "--model=" + model, "--queries=50"});
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"m.model"});
  std::filesystem::remove_all(dir);
}

TEST_F(CliPipelineTest, DiskServingRejectsACorruptModelFile) {
  // A byte flipped inside the model file (in U's rows) is caught by the
  // checksum at open: serve and stats fail instead of serving it.
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
  EXPECT_EQ(RunTool({"stats", "--model=" + model}).exit_code, 1);
  std::filesystem::remove(model);
}

TEST_F(CliPipelineTest, MetricsOutWritesRegistryJson) {
  const std::string metrics_path = TempPath("cli_metrics.json");
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
        "--no-bloom", "--cache-blocks=8", "--spcae=5"}) {
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
