// Differential tests for MIN/MAX by block bound: every answer of the
// branch-and-bound search over U's 64-row block boxes must be the scan's
// double, byte for byte, for every U encoding, in memory and on disk,
// at any thread count, grouped by column or not at all, over ragged
// blocks, patched cells, folded-in rows and blocks of identical rows.
// The scan is forced by adding a median(value), which only it answers.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/compressed_store.h"
#include "core/disk_backed.h"
#include "core/row_block_sums.h"
#include "core/svdd_compressor.h"
#include "linalg/kernels.h"
#include "query/executor.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsc {
namespace {

// 1000 rows: 15 full 64-row blocks and a ragged last block of 40.
constexpr std::size_t kRows = 1000;
constexpr std::size_t kCols = 24;
constexpr std::size_t kRowBlock = RowBlockSums::kRowBlock;

/// Daily profiles at a per-row scale and phase over a level that drifts
/// with the row, so blocks differ and the search has blocks to prune,
/// with noise and spikes, all well above zero: the search itself
/// answers min as well as max.
Matrix ProfileData() {
  Rng rng(17);
  Matrix data(kRows, kCols);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double level = 300.0 + 200.0 * std::sin(0.006 * i);
    const double scale = 20.0 + 30.0 * rng.UniformDouble();
    const double phase = 6.28 * rng.UniformDouble();
    for (std::size_t j = 0; j < kCols; ++j) {
      double value = level + scale * std::sin(phase + 0.26 * j) +
                     4.0 * rng.UniformDouble();
      if (rng.UniformDouble() < 0.01) value += 150.0 * rng.UniformDouble();
      data(i, j) = value;
    }
  }
  return data;
}

SvddModel BuildModel(const Matrix& data, QuantScheme quant) {
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  options.quant = quant;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

/// The same values, bit for bit (+0 and -0 differ).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs "select <aggregates> where <where><group>" and the same with a
/// median appended, which the scan answers along with every other
/// aggregate, and expects each block-bound answer to be the scan's
/// double. Returns the block-bound result.
QueryResult ExpectScanAnswers(const QueryExecutor& executor,
                              const std::string& aggregates,
                              const std::string& where,
                              const std::string& group,
                              const std::string& context) {
  const std::string fast_sql =
      "select " + aggregates + " where " + where + group;
  const std::string scan_sql =
      "select " + aggregates + ", median(value) where " + where + group;
  const auto fast = executor.Execute(fast_sql);
  const auto scan = executor.Execute(scan_sql);
  TSC_CHECK_OK(fast.status());
  TSC_CHECK_OK(scan.status());
  EXPECT_NE(fast->strategy_summary.find("=block-bound"), std::string::npos)
      << context << " " << fast_sql << ": " << fast->strategy_summary;
  EXPECT_EQ(scan->strategy_summary.find("block-bound"), std::string::npos)
      << context << " " << scan_sql;
  const std::size_t a_fast = fast->aggregate_count;
  EXPECT_EQ(scan->aggregate_count, a_fast + 1);
  EXPECT_EQ(fast->group_count(), scan->group_count());
  for (std::size_t g = 0; g < fast->group_count(); ++g) {
    for (std::size_t a = 0; a < a_fast; ++a) {
      const double got = fast->ValueAt(g, a);
      const double want = scan->ValueAt(g, a);
      EXPECT_TRUE(SameBits(got, want))
          << context << " " << fast_sql << " group " << g << " aggregate "
          << a << ": " << got << " vs the scan's " << want;
    }
  }
  return *fast;
}

TEST(BlockBoxTest, BoundsHoldGemmNTsValueForEveryRowOfTheBox) {
  // Each box holds its rows, and its bound holds GemmNT's value of each
  // row against each column's weights. In half the trials every block's
  // rows are identical, so the box is a point and the bound's own sum
  // lands within rounding of GemmNT's: only the allowance keeps it from
  // falling below.
  Rng rng(5);
  constexpr std::size_t kColumns = 8;
  for (std::size_t k = 1; k <= 20; ++k) {
    for (int trial = 0; trial < 40; ++trial) {
      const bool identical = trial % 2 == 0;
      const std::size_t rows = 1 + rng.UniformUint64(3 * kRowBlock);
      const double scale =
          std::ldexp(1.0, static_cast<int>(rng.UniformUint64(40)) - 20);
      Matrix u(rows, k);
      RowBlockSums sums(rows, k);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
          u(i, p) = identical && i % kRowBlock != 0 ? u(i - 1, p)
                                                    : scale * rng.Gaussian();
        }
        sums.AddRow(i, u.Row(i).data());
      }
      sums.Finish();
      Matrix weights(k, kColumns);  // column c's weights down column c
      Matrix by_column(kColumns, k);
      for (std::size_t c = 0; c < kColumns; ++c) {
        for (std::size_t p = 0; p < k; ++p) {
          by_column(c, p) = weights(p, c) = 100.0 * rng.Gaussian();
        }
      }
      std::vector<double> magnitude(kColumns);
      std::vector<double> bound(kColumns);
      std::vector<double> values(kColumns);
      for (std::size_t b = 0; b < sums.block_count(); ++b) {
        sums.BoxBounds(b, weights, magnitude, bound);
        for (std::size_t i = b * kRowBlock;
             i < std::min(rows, (b + 1) * kRowBlock); ++i) {
          for (std::size_t p = 0; p < k; ++p) {
            ASSERT_LE(sums.BoxLo(b)[p], u(i, p));
            ASSERT_GE(sums.BoxHi(b)[p], u(i, p));
          }
          kernels::GemmNT(u.Row(i).data(), 1, k, by_column.Row(0).data(),
                          kColumns, k, k, values.data(), kColumns);
          for (std::size_t c = 0; c < kColumns; ++c) {
            ASSERT_LE(values[c], bound[c])
                << "k=" << k << " trial " << trial << " row " << i
                << " column " << c;
          }
        }
      }
    }
  }
}

struct Case {
  std::string aggregates;
  std::string where;
  std::string group;
};

std::vector<Case> Cases() {
  // Multi-block selections: aligned, straddling block edges, several
  // runs, and the ragged last block (rows 960..999).
  const std::vector<std::string> wheres = {
      "row in 0:999",
      "row in 3:700 and col in 2:9",
      "row in 60:70,500:999 and col in 0:5,11,17:23",
      "row in 936:999",
      "row in 63:64 and col in 4",
  };
  std::vector<Case> cases;
  for (const std::string& where : wheres) {
    for (const char* group : {"", " group by col"}) {
      for (const char* aggregates :
           {"max(value)", "min(value)", "max(value), min(value), sum(value)"}) {
        cases.push_back({aggregates, where, group});
      }
    }
  }
  return cases;
}

struct Encoding {
  const char* name;
  QuantScheme quant;
};

void PrintTo(const Encoding& encoding, std::ostream* out) {
  *out << encoding.name;
}

class BlockBoundTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(BlockBoundTest, MatchesTheScanInMemoryAndOnDiskAtAnyThreadCount) {
  const SvddModel model = BuildModel(ProfileData(), GetParam().quant);
  const std::string path = ::testing::TempDir() + "/block_bound_" +
                           std::string(GetParam().name) + ".model";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  DiskBackedOptions options;
  options.cache_blocks = 3;  // far smaller than U: misses and evictions
  auto store = DiskBackedStore::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const DiskBackedStoreView view(&*store);

  const std::vector<Case> cases = Cases();
  // The work counts of the serial in-memory executor, which every other
  // executor must repeat exactly.
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cells;
  bool pruned = false;
  for (const bool on_disk : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const QueryExecutor executor =
          on_disk ? QueryExecutor(&view, threads)
                  : QueryExecutor(&model, threads);
      const std::string context = std::string(on_disk ? "disk" : "memory") +
                                  " threads=" + std::to_string(threads);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const QueryResult result =
            ExpectScanAnswers(executor, cases[c].aggregates, cases[c].where,
                              cases[c].group, context);
        if (!on_disk && threads == 1) {
          rows.push_back(result.rows_reconstructed);
          cells.push_back(result.bound_cells);
          pruned |= result.bound_blocks_reconstructed <
                    result.bound_blocks_total;
        } else {
          EXPECT_EQ(result.rows_reconstructed, rows[c]) << context;
          EXPECT_EQ(result.bound_cells, cells[c]) << context;
        }
      }
    }
  }
  // The search must have skipped work somewhere, or the matrix above
  // only compared the scan with itself.
  EXPECT_TRUE(pruned);
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    EveryEncoding, BlockBoundTest,
    ::testing::Values(Encoding{"f64", QuantScheme::kF64},
                      Encoding{"f32", QuantScheme::kF32},
                      Encoding{"i16", QuantScheme::kI16},
                      Encoding{"i8", QuantScheme::kI8}),
    [](const ::testing::TestParamInfo<Encoding>& info) {
      return std::string(info.param.name);
    });

TEST(BlockBoundSearchTest, CountsOnlyWhatItReconstructs) {
  const SvddModel model = BuildModel(ProfileData(), QuantScheme::kF64);
  const QueryExecutor executor(&model);
  const auto result = executor.Execute(
      "select max(value) where row in 0:999 and col in 0:23 group by col");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy_summary, "max=block-bound");
  EXPECT_EQ(result->compressed_domain_aggregates, 0u);
  EXPECT_EQ(result->bound_blocks_total, 16u);
  EXPECT_LT(result->bound_blocks_reconstructed, 16u);
  EXPECT_LE(result->rows_reconstructed,
            result->bound_blocks_reconstructed * kRowBlock);
  EXPECT_LT(result->bound_cells, kRows * kCols);
  const std::string footer = result->AnalyzeFooter();
  EXPECT_NE(footer.find("-- block bound: blocks reconstructed " +
                        std::to_string(result->bound_blocks_reconstructed) +
                        " of 16, cells " +
                        std::to_string(result->bound_cells)),
            std::string::npos)
      << footer;

  // Within one block there is nothing to order: the scan answers.
  const auto single = executor.Execute(
      "select max(value) where row in 64:127 group by col");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->strategy_summary, "max=row-reconstruction");
  EXPECT_EQ(single->rows_reconstructed, 64u);
  EXPECT_EQ(single->AnalyzeFooter().find("block bound"), std::string::npos);
}

/// Each block's largest reconstructed value in column `col`.
std::vector<double> BlockMaxima(const SvddModel& model, std::size_t col) {
  std::vector<double> maxima((model.rows() + kRowBlock - 1) / kRowBlock,
                             -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < model.rows(); ++i) {
    maxima[i / kRowBlock] =
        std::max(maxima[i / kRowBlock], model.ReconstructCell(i, col));
  }
  return maxima;
}

TEST(BlockBoundSearchTest, PatchLiftsACellOfAPrunedBlock) {
  SvddModel model = BuildModel(ProfileData(), QuantScheme::kF64);
  constexpr std::size_t kCol = 7;
  const std::string where = "row in 0:999 and col in 7";
  const QueryExecutor before_exec(&model);
  const QueryResult before =
      ExpectScanAnswers(before_exec, "max(value)", where, "", "before");
  ASSERT_LT(before.bound_blocks_reconstructed, before.bound_blocks_total);

  // The block whose cells are lowest in the column is the one the
  // search prunes first; lift one of its cells above the answer. Only
  // the block's delta bound can tell the search to visit it.
  const std::vector<double> maxima = BlockMaxima(model, kCol);
  const std::size_t block = static_cast<std::size_t>(
      std::min_element(maxima.begin(), maxima.end()) - maxima.begin());
  const std::size_t row = block * kRowBlock + 5;
  ASSERT_TRUE(model.PatchCell(row, kCol, before.values[0] + 100.0).ok());
  const QueryExecutor after_exec(&model);
  const QueryResult after =
      ExpectScanAnswers(after_exec, "max(value)", where, "", "after");
  EXPECT_TRUE(SameBits(after.values[0], model.ReconstructCell(row, kCol)));
  EXPECT_GT(after.values[0], before.values[0]);

  // The mirror image: a cell pushed below the minimum.
  const QueryResult low =
      ExpectScanAnswers(after_exec, "min(value)", where, "", "min before");
  const std::size_t high_block = static_cast<std::size_t>(
      std::max_element(maxima.begin(), maxima.end()) - maxima.begin());
  const std::size_t low_row = high_block * kRowBlock + 9;
  ASSERT_TRUE(model.PatchCell(low_row, kCol, low.values[0] - 100.0).ok());
  const QueryResult lower =
      ExpectScanAnswers(after_exec, "min(value)", where, "", "min after");
  EXPECT_TRUE(
      SameBits(lower.values[0], model.ReconstructCell(low_row, kCol)));
  for (const char* group : {"", " group by col"}) {
    ExpectScanAnswers(after_exec, "max(value), min(value)",
                      "row in 0:999 and col in 3:12", group, "patched");
  }
}

TEST(BlockBoundSearchTest, FoldedInRowsAreSearched) {
  const Matrix data = ProfileData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  // 70 new rows (the last block ragged again), one of them far above
  // and one far below everything the model held.
  Matrix fresh(70, kCols);
  for (std::size_t i = 0; i < fresh.rows(); ++i) {
    for (std::size_t j = 0; j < kCols; ++j) fresh(i, j) = data(i * 7, j);
  }
  for (std::size_t j = 0; j < kCols; ++j) {
    fresh(33, j) *= 5.0;
    fresh(51, j) *= -3.0;
  }
  model.FoldInRows(fresh);
  ASSERT_EQ(model.rows(), kRows + 70);
  const QueryExecutor executor(&model);
  for (const char* group : {"", " group by col"}) {
    for (const char* where : {"row in 900:1069", "row in 0:1069 and col in 5:9",
                              "row in 1000:1069"}) {
      ExpectScanAnswers(executor, "max(value), min(value)", where, group,
                        "folded");
    }
  }
}

TEST(BlockBoundSearchTest, BlocksOfIdenticalRowsKeepTheirTies) {
  // Blocks 2 and 3 hold one row each, repeated, the second a few ulps
  // above the first: their boxes are points, so each bound sits within
  // rounding of the block's own values, and only the rounding allowance
  // keeps a block whose values reach the running best from being pruned.
  Matrix data = ProfileData();
  std::vector<double> top(kCols);
  for (std::size_t j = 0; j < kCols; ++j) top[j] = 2.0 * data(3, j) + 400.0;
  for (std::size_t i = 2 * kRowBlock; i < 4 * kRowBlock; ++i) {
    const double scale = i < 3 * kRowBlock ? 1.0 : 1.0 + 8e-16;
    for (std::size_t j = 0; j < kCols; ++j) data(i, j) = top[j] * scale;
  }
  for (const QuantScheme quant : {QuantScheme::kF64, QuantScheme::kI8}) {
    const SvddModel model = BuildModel(data, quant);
    const QueryExecutor executor(&model);
    for (const char* group : {"", " group by col"}) {
      for (const char* where :
           {"row in 0:999", "row in 128:255", "row in 100:300 and col in 1:4"}) {
        ExpectScanAnswers(executor, "max(value), min(value)", where, group,
                          QuantSchemeName(quant));
      }
    }
  }
}

TEST(BlockBoundSearchTest, RaggedRunsWithPatchedStretchEndsMatchTheScan) {
  // Runs that start and end inside 64-row blocks on both sides of an
  // edge, several to a block, so each block's deltas come from one or
  // more stretches of the row CSR. Patches at the stretches' first and
  // last rows lift (or sink) cells of blocks that are still in
  // contention past the running best; the rows between two runs of a
  // block hold patches the selection must not see. In memory the
  // patches sit in the delta overlay; the saved model holds them in its
  // base.
  SvddModel model = BuildModel(ProfileData(), QuantScheme::kF64);
  const std::string where =
      "row in 5:20,30:62,66:90,100:140,200:250,300:301,303:390,950:999 "
      "and col in 2:9,15";
  const QueryExecutor before(&model);
  const QueryResult plain =
      ExpectScanAnswers(before, "max(value), min(value)", where, "", "plain");
  const double top = plain.values[0];
  const double bottom = plain.values[1];
  for (const auto& [row, col, value] :
       std::vector<std::tuple<std::size_t, std::size_t, double>>{
           {62, 3, top + 50.0},      // last row before the 63/64 edge
           {66, 4, top + 50.0},      // first row after it
           {128, 3, top + 50.0},     // a run across the 127/128 edge
           {140, 15, top + 20.0},    // a run's end inside block 2
           {303, 2, bottom - 30.0},  // a run's start after a one-row gap
           {390, 9, bottom - 30.0},  // a run's end inside block 6
           {950, 8, bottom - 10.0},  // the ragged last block
           {64, 3, top + 900.0},     // unselected rows between runs
           {302, 2, bottom - 900.0},
           {25, 15, top + 900.0}}) {
    ASSERT_TRUE(model.PatchCell(row, col, value).ok());
  }
  // The patched cells reconstruct within rounding of their values.
  const double lifted = std::max({model.ReconstructCell(62, 3),
                                  model.ReconstructCell(66, 4),
                                  model.ReconstructCell(128, 3)});
  const double sunk = std::min(model.ReconstructCell(303, 2),
                               model.ReconstructCell(390, 9));
  const std::string path =
      ::testing::TempDir() + "/block_bound_ragged_runs.model";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  DiskBackedOptions options;
  options.cache_blocks = 3;
  auto store = DiskBackedStore::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const DiskBackedStoreView view(&*store);

  std::vector<double> memory_answers;
  for (const bool on_disk : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const QueryExecutor executor = on_disk ? QueryExecutor(&view, threads)
                                             : QueryExecutor(&model, threads);
      const std::string context = std::string(on_disk ? "disk" : "memory") +
                                  " threads=" + std::to_string(threads);
      std::vector<double> answers;
      for (const char* group : {"", " group by col"}) {
        const QueryResult result = ExpectScanAnswers(
            executor, "max(value), min(value)", where, group, context);
        answers.insert(answers.end(), result.values.begin(),
                       result.values.end());
        if (group[0] == '\0') {
          EXPECT_TRUE(SameBits(result.values[0], lifted)) << context;
          EXPECT_TRUE(SameBits(result.values[1], sunk)) << context;
        }
      }
      if (memory_answers.empty()) memory_answers = answers;
      ASSERT_EQ(answers.size(), memory_answers.size());
      EXPECT_EQ(std::memcmp(answers.data(), memory_answers.data(),
                            answers.size() * sizeof(double)),
                0)
          << context;
    }
  }
  std::filesystem::remove(path);
}

/// `model` with its compressed domain, except that every zero cell of
/// an odd row reconstructs as -0. A model's own reconstructions never
/// hold -0 (GemmNT's accumulators start at +0, and x + (-x) is +0), so
/// this is how a group's zeros come to have both signs.
class SignedZeroStore final : public CompressedStore {
 public:
  explicit SignedZeroStore(const SvddModel* model) : model_(model) {}

  std::size_t rows() const override { return model_->rows(); }
  std::size_t cols() const override { return model_->cols(); }
  double ReconstructCell(std::size_t row, std::size_t col) const override {
    return Signed(row, model_->ReconstructCell(row, col));
  }
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override {
    TSC_RETURN_IF_ERROR(model_->ReconstructRegion(row_ids, col_ids, out));
    for (std::size_t r = 0; r < row_ids.size(); ++r) {
      for (double& value : out->Row(r)) value = Signed(row_ids[r], value);
    }
    return Status::Ok();
  }
  std::uint64_t CompressedBytes() const override {
    return model_->CompressedBytes();
  }
  std::string MethodName() const override { return model_->MethodName(); }
  const SvddModel* compressed_domain() const override { return model_; }

 private:
  static double Signed(std::size_t row, double value) {
    return value == 0.0 && row % 2 == 1 ? -0.0 : value;
  }

  const SvddModel* model_;
};

TEST(BlockBoundSearchTest, ZeroAnswersTakeTheScansSign) {
  // Cells patched to zero reconstruct to a zero, so the answer of those
  // columns is one. Every zero of such a group is reconstructed by the
  // search, so with one sign among them that is the answer; with both,
  // the scan, whose order decides between +0 and -0, recomputes it.
  SvddModel model = BuildModel(ProfileData(), QuantScheme::kF64);
  constexpr std::size_t kZeroRows = 131;
  for (std::size_t i = 0; i < kZeroRows; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_TRUE(model.PatchCell(i, j, 0.0).ok());
    }
    ASSERT_TRUE(model.PatchCell(i, 3, -5.0).ok());
  }
  const SignedZeroStore signed_zeros(&model);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const QueryExecutor plain(&model, threads);
    const QueryExecutor mixed(&signed_zeros, threads);
    for (const char* group : {"", " group by col"}) {
      const std::string where = "row in 0:130 and col in 0:3";
      const QueryResult one_sign =
          ExpectScanAnswers(plain, "max(value)", where, group, "+0");
      const QueryResult both_signs =
          ExpectScanAnswers(mixed, "max(value)", where, group, "+0 and -0");
      EXPECT_EQ(one_sign.values[0], 0.0);
      EXPECT_FALSE(std::signbit(one_sign.values[0]));
      // Only the mixed zeros cost a rescan of the selected rows.
      EXPECT_EQ(both_signs.rows_reconstructed,
                one_sign.rows_reconstructed + kZeroRows);
      ExpectScanAnswers(mixed, "max(value), min(value)",
                        "row in 0:300 and col in 0:8", group, "mixed");
    }
  }
}

}  // namespace
}  // namespace tsc
