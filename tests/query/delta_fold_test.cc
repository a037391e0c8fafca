// Differential tests of every delta fold against a std::map oracle, for
// each U encoding, in memory and on disk, after patches and after
// FoldInRows. A model with the same factors and no deltas computes the
// SVD side with the same arithmetic, so every reconstruction must equal
// that model's value plus the oracle's delta bit for bit.

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "../core/bloom_section_files.h"
#include "scan_only_store.h"
#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "obs/query_context.h"
#include "query/executor.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsc {
namespace {

using Oracle = std::map<std::pair<std::size_t, std::size_t>, double>;

// gtest lists each case by the parameter's bytes ("16-byte object
// <...>"), so the struct has no padding: `zero` fills the gap between
// the fields, and every byte of the listed name is the same in every
// build (padding bytes were not). `b`, the paper's bytes per value, is
// 8 for every case; it keeps the "_b8" names and the 16-byte listing
// the cases have had since a b=4 case was among them.
struct FoldCase {
  QuantScheme quant;
  std::uint32_t zero = 0;
  std::uint64_t b = kBytesPerValue;
};
static_assert(std::has_unique_object_representations_v<FoldCase>,
              "FoldCase must have no padding bytes");

std::string CaseName(const FoldCase& c) {
  return std::string(QuantSchemeName(c.quant)) + "_b" + std::to_string(c.b);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" + std::to_string(::getpid());
}

Oracle OracleOf(const SvddModel& model) {
  Oracle oracle;
  model.deltas()->ForEach([&](std::size_t i, std::size_t j, double delta) {
    oracle[{i, j}] = delta;
  });
  return oracle;
}

double Plus(double base, const Oracle& oracle, std::size_t i, std::size_t j) {
  const auto it = oracle.find({i, j});
  return it == oracle.end() ? base : base + it->second;
}

/// Unsorted ids with repeats, including 0 and the last id.
std::vector<std::size_t> ShuffledIds(Rng& rng, std::size_t n,
                                     std::size_t count) {
  std::vector<std::size_t> ids = {n - 1, 0};
  for (std::size_t c = 0; c < count; ++c) ids.push_back(rng.UniformUint64(n));
  ids.push_back(ids[2]);
  return ids;
}

/// `with` must be `bare` plus the oracle's delta, bit for bit, on every
/// cell, row, repeated cell and region. Either model may read U from
/// memory or from the disk layout: the same code serves both.
void ExpectFoldsMatch(const SvddModel& with, const SvddModel& bare,
                      const Oracle& oracle, std::size_t rows,
                      std::size_t cols, Rng& rng) {
  const auto cell = [](const SvddModel& model, std::size_t i, std::size_t j) {
    const StatusOr<double> value = model.TryReconstructCell(i, j);
    TSC_CHECK_OK(value.status());
    return *value;
  };
  std::vector<double> got(cols);
  std::vector<double> base(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(with.TryReconstructRow(i, got).ok());
    ASSERT_TRUE(bare.TryReconstructRow(i, base).ok());
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(got[j], Plus(base[j], oracle, i, j)) << "row " << i << "," << j;
      ASSERT_EQ(cell(with, i, j), Plus(cell(bare, i, j), oracle, i, j))
          << "cell " << i << "," << j;
    }
  }
  // Every stored cell twice, with random cells between.
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (const auto& [stored, delta] : oracle) {
    cells.push_back(stored);
    cells.emplace_back(rng.UniformUint64(rows), rng.UniformUint64(cols));
    cells.push_back(stored);
  }
  for (std::size_t n = 0; n < cells.size(); ++n) {
    const auto [i, j] = cells[n];
    ASSERT_EQ(cell(with, i, j), Plus(cell(bare, i, j), oracle, i, j))
        << "repeated cell " << n;
  }
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<std::size_t> row_ids =
        ShuffledIds(rng, rows, 5 + rng.UniformUint64(40));
    const std::vector<std::size_t> col_ids =
        ShuffledIds(rng, cols, 3 + rng.UniformUint64(20));
    Matrix got_region;
    Matrix base_region;
    ASSERT_TRUE(with.ReconstructRegion(row_ids, col_ids, &got_region).ok());
    ASSERT_TRUE(bare.ReconstructRegion(row_ids, col_ids, &base_region).ok());
    for (std::size_t r = 0; r < row_ids.size(); ++r) {
      for (std::size_t c = 0; c < col_ids.size(); ++c) {
        ASSERT_EQ(got_region(r, c),
                  Plus(base_region(r, c), oracle, row_ids[r], col_ids[c]))
            << "region " << row_ids[r] << "," << col_ids[c];
      }
    }
  }
}

/// Grouped and ungrouped sums from the compressed domain, at 1 and 3
/// threads, against the same queries answered by the scan executor.
void ExpectAggregatesMatch(const SvddModel& model) {
  const QueryExecutor serial(&model);
  const QueryExecutor threaded(&model, 3);
  const ScanOnlyStore scan_store(&model);
  const QueryExecutor scan(&scan_store);
  const std::string last_row = std::to_string(model.rows() - 1);
  const std::string last_col = std::to_string(model.cols() - 1);
  for (const std::string& query : std::vector<std::string>{
           "select sum(value) where row in 0:" + last_row + " group by col",
        "select sum(value) where row in 0,3:20," + last_row +
            " and col in 1:5,7," + last_col + " group by col",
        "select sum(value) where col in 0,2:9 group by row",
        "select sum(value) where row in 1:" + last_row,
        "select sum(value) where row in " + last_row + " and col in 0"}) {
    const auto want = scan.Execute(query);
    ASSERT_TRUE(want.ok()) << query;
    for (const QueryExecutor* executor : {&serial, &threaded}) {
      const auto got = executor->Execute(query);
      ASSERT_TRUE(got.ok()) << query;
      EXPECT_EQ(got->rows_reconstructed, 0u) << query;
      ASSERT_EQ(got->values.size(), want->values.size()) << query;
      for (std::size_t v = 0; v < want->values.size(); ++v) {
        EXPECT_NEAR(got->values[v], want->values[v],
                    1e-9 * (1.0 + std::abs(want->values[v])))
            << query << " group " << v;
      }
    }
  }
}

class DeltaFoldTest : public ::testing::TestWithParam<FoldCase> {
 protected:
  void SetUp() override {
    PhoneDatasetConfig config;
    config.num_customers = 120;
    config.num_days = 30;
    config.spike_probability = 0.02;
    config.seed = 5;
    data_ = GeneratePhoneDataset(config).values;
    MatrixRowSource source(&data_);
    SvddBuildOptions options;
    options.space_percent = 20.0;
    options.quant = GetParam().quant;
    auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->delta_count(), 0u);
    model_ = std::move(*model);
  }

  /// The model's factors with no deltas.
  SvddModel Bare() const {
    auto none = DeltaIndex::Build(model_.rows(), model_.cols(), {});
    TSC_CHECK_OK(none.status());
    return SvddModel(model_.svd(), std::move(*none));
  }

  void ExpectInMemory(Rng& rng) {
    const SvddModel bare = Bare();
    ExpectFoldsMatch(model_, bare, OracleOf(model_), model_.rows(),
                     model_.cols(), rng);
  }

  void ExpectOnDisk(Rng& rng) {
    const SvddModel bare = Bare();
    const std::string name = CaseName(GetParam());
    const std::string path = TempPath(name + "_fold.model");
    const std::string bare_path = TempPath(name + "_bare.model");
    ASSERT_TRUE(model_.SaveToFile(path).ok());
    ASSERT_TRUE(bare.SaveToFile(bare_path).ok());
    auto store = DiskBackedStore::Open(path);
    auto bare_store = DiskBackedStore::Open(bare_path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(bare_store.ok()) << bare_store.status().ToString();
    EXPECT_EQ(store->model().delta_count(), model_.delta_count());
    ExpectFoldsMatch(store->model(), bare_store->model(), OracleOf(model_),
                     model_.rows(), model_.cols(), rng);
  }

  Matrix data_;
  SvddModel model_;
};

TEST_P(DeltaFoldTest, FoldsMatchOracleInMemoryAndOnDisk) {
  Rng rng(21);
  ExpectInMemory(rng);
  ExpectOnDisk(rng);
  ExpectAggregatesMatch(model_);
}

TEST_P(DeltaFoldTest, FoldsMatchOracleAfterPatches) {
  Rng rng(22);
  const Oracle before = OracleOf(model_);
  // Overwrite stored deltas and add fresh ones, past an overlay merge.
  for (std::size_t p = 0; p < DeltaIndex::kMaxOverlay + 40; ++p) {
    std::size_t i = rng.UniformUint64(model_.rows());
    std::size_t j = rng.UniformUint64(model_.cols());
    if (p % 4 == 0) {
      auto it = before.begin();
      std::advance(it, static_cast<long>(rng.UniformUint64(before.size())));
      i = it->first.first;
      j = it->first.second;
    }
    const double value = rng.UniformDouble(-100.0, 400.0);
    ASSERT_TRUE(model_.PatchCell(i, j, value).ok());
    EXPECT_NEAR(model_.ReconstructCell(i, j), value,
                1e-9 * (1.0 + std::abs(value)));
    if (p == 10) ExpectInMemory(rng);
  }
  ExpectInMemory(rng);
  ExpectOnDisk(rng);
  ExpectAggregatesMatch(model_);
}

TEST_P(DeltaFoldTest, FoldsMatchOracleAfterFoldIn) {
  Rng rng(23);
  Matrix appended(7, model_.cols());
  for (std::size_t r = 0; r < appended.rows(); ++r) {
    for (std::size_t c = 0; c < appended.cols(); ++c) {
      appended(r, c) = rng.UniformDouble(0.0, 30.0);
    }
  }
  const QueryExecutor before_fold(&model_);  // its hierarchy goes stale
  model_.FoldInRows(appended);
  EXPECT_EQ(model_.deltas()->rows(), model_.rows());
  ExpectInMemory(rng);
  ASSERT_TRUE(model_.PatchCell(model_.rows() - 1, 0, 777.0).ok());
  ASSERT_TRUE(model_.PatchCell(model_.rows() - 2, model_.cols() - 1, -3.0).ok());
  ExpectInMemory(rng);
  ExpectOnDisk(rng);
  ExpectAggregatesMatch(model_);
  const auto sum = before_fold.Execute("select sum(value), count(*)");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->values[1], static_cast<double>(model_.rows() * model_.cols()));
}

TEST_P(DeltaFoldTest, DeltaCellsAreExactOnDisk) {
  // The paper's contract on the disk layout: every delta cell read from
  // the model file, under every cache size, is the in-memory
  // cell bit for bit, and that is the raw cell up to the rounding of
  // base + (x - base) (about one cell in ten is an ulp off, in memory as
  // on disk).
  const std::string path = TempPath(CaseName(GetParam()) + "_exact.model");
  ASSERT_TRUE(model_.SaveToFile(path).ok());
  for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{5}}) {
    SCOPED_TRACE("cache " + std::to_string(cache_blocks));
    DiskBackedOptions options;
    options.cache_blocks = cache_blocks;
    auto store = DiskBackedStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::size_t cells = 0;
    model_.deltas()->ForEach([&](std::size_t i, std::size_t j, double) {
      const StatusOr<double> disk = store->ReconstructCell(i, j);
      ASSERT_TRUE(disk.ok());
      EXPECT_EQ(*disk, model_.ReconstructCell(i, j)) << i << "," << j;
      EXPECT_NEAR(*disk, data_(i, j), 1e-13 * (1.0 + std::abs(data_(i, j))))
          << i << "," << j;
      ++cells;
    });
    EXPECT_EQ(cells, model_.delta_count());
  }
}

TEST_P(DeltaFoldTest, OlderLayoutsLoadAndServeIdentically) {
  // Files in the older layouts (a Bloom filter after the deltas; a
  // quantized U stored as its snapped f64 rows) load with the original
  // model's answers bit for bit, and serve from disk as they do from
  // memory.
  const std::string name = CaseName(GetParam());
  const std::string bloom = TempPath(name + "_bloom.model");
  const std::string snapped = TempPath(name + "_snapped.model");
  ASSERT_TRUE(WriteModelWithBloomSection(model_, bloom).ok());
  ASSERT_TRUE(WriteModelWithSnappedU(model_, snapped).ok());
  std::vector<double> want(model_.cols());
  std::vector<double> got(model_.cols());
  for (const std::string& path : {bloom, snapped}) {
    SCOPED_TRACE(path);
    const auto loaded = SvddModel::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->svd().quant_scheme(), model_.svd().quant_scheme());
    EXPECT_EQ(loaded->CompressedBytes(), model_.CompressedBytes());
    DiskBackedOptions options;
    options.cache_blocks = 5;
    auto store = DiskBackedStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (std::size_t i = 0; i < model_.rows(); ++i) {
      model_.ReconstructRow(i, want);
      loaded->ReconstructRow(i, got);
      ASSERT_EQ(got, want) << "memory row " << i;
      ASSERT_TRUE(store->model().TryReconstructRow(i, got).ok());
      ASSERT_EQ(got, want) << "disk row " << i;
    }
    ExpectAggregatesMatch(store->model());
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryEncoding, DeltaFoldTest,
    ::testing::Values(
        FoldCase{.quant = QuantScheme::kF64},
        FoldCase{.quant = QuantScheme::kF32},
        FoldCase{.quant = QuantScheme::kI16},
        FoldCase{.quant = QuantScheme::kI8}),
    [](const auto& info) { return CaseName(info.param); });

/// Writes `model`'s factors followed by a hand-made delta section.
void WriteWithSection(const SvddModel& model, const std::string& path,
                      const std::vector<DeltaEntry>& entries) {
  auto writer = BinaryWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteU32(0x53564444).ok());
  ASSERT_TRUE(model.svd().Serialize(&*writer).ok());
  ASSERT_TRUE(writer->WriteU64(DeltaIndex::kPackedEntryBytes).ok());
  ASSERT_TRUE(writer->WriteU64(entries.size()).ok());
  for (const DeltaEntry& entry : entries) {
    ASSERT_TRUE(writer->WriteU64(entry.key).ok());
    ASSERT_TRUE(writer->WriteDouble(entry.delta).ok());
  }
  ASSERT_TRUE(writer->WriteU32(0).ok());
  ASSERT_TRUE(writer->FinishWithChecksum().ok());
}

TEST(DeltaLoaderTest, ModelLoadersRejectBadKeys) {
  PhoneDatasetConfig config;
  config.num_customers = 40;
  config.num_days = 12;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 30.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string model_path = TempPath("hostile.model");
  const std::uint64_t cells = 40 * 12;
  const std::vector<std::vector<DeltaEntry>> hostile = {
      {{9, 1.0}, {4, 1.0}},      // unsorted
      {{9, 1.0}, {9, 2.0}},      // duplicated
      {{cells, 1.0}},            // out of range
      {{3, 1.0}, {cells + 7, 1.0}},
  };
  for (const auto& entries : hostile) {
    WriteWithSection(*model, model_path, entries);
    const auto loaded = SvddModel::LoadFromFile(model_path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
        << loaded.status().ToString();
    const auto store = DiskBackedStore::Open(model_path);
    EXPECT_EQ(store.status().code(), StatusCode::kIoError)
        << store.status().ToString();
  }
  // The same writer with sorted, in-range keys loads.
  WriteWithSection(*model, model_path, {{4, 1.0}, {cells - 1, 2.0}});
  const auto loaded = SvddModel::LoadFromFile(model_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->delta_count(), 2u);
  const auto store = DiskBackedStore::Open(model_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->model().delta_count(), 2u);
}

TEST(DeltaProbeTest, GroupByColAndMaxPanelChargeWhatTheyRead) {
  PhoneDatasetConfig config;
  config.num_customers = 5000;
  config.num_days = 24;
  config.spike_probability = 0.02;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const QueryExecutor executor(&*model);
  const auto charged = [&](const std::string& sql, QueryResult* result) {
    obs::QueryContext context;
    const obs::ScopedQueryContext scope(&context);
    auto answer = executor.Execute(sql);
    TSC_CHECK_OK(answer.status());
    *result = std::move(*answer);
    return context.Costs().delta_probes;
  };

  // GROUP BY col over lo:hi reads the checkpoints at rows step and
  // 3 step and walks the step / 2 - 6 rows between the first and lo and
  // the step / 2 - 40 rows between hi and the second.
  constexpr std::size_t kStep = DeltaIndex::kCheckpointRows;
  const std::size_t lo = kStep + kStep / 2 - 6;
  const std::size_t hi = 2 * kStep + kStep / 2 + 39;
  QueryResult by_col;
  const std::uint64_t by_col_probes =
      charged("select sum(value) where row in " + std::to_string(lo) + ":" +
                  std::to_string(hi) + " group by col",
              &by_col);
  EXPECT_EQ(by_col.rows_reconstructed, 0u);

  // A block-bound max charges the rows of the blocks it reconstructs,
  // once each; the walk that builds its bounds is not charged.
  QueryResult max;
  const std::uint64_t max_probes =
      charged("select max(value) where row in 1000:1999", &max);
  EXPECT_EQ(max.strategy_summary, "max=block-bound");
  EXPECT_GT(max.rows_reconstructed, 0u);
#ifndef TSC_OBS_DISABLED
  // The charges themselves (compiled out with the instruments).
  EXPECT_EQ(by_col_probes, 2 + (kStep / 2 - 6) + (kStep / 2 - 40));
  EXPECT_EQ(max_probes, max.rows_reconstructed);
#else
  (void)by_col_probes;
  (void)max_probes;
#endif
}

}  // namespace
}  // namespace tsc
