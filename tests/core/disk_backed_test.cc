#include "core/disk_backed.h"

#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "data/generators.h"
#include "storage/row_source.h"
#include "storage/row_store.h"

namespace tsc {
namespace {

StatusOr<SvddModel> BuildTestModel(const Matrix& x, double space_percent) {
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = space_percent;
  return BuildSvddModel(&source, options);
}

class DiskBackedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PhoneDatasetConfig config;
    config.num_customers = 150;
    config.num_days = 40;
    config.spike_probability = 0.01;
    data_ = GeneratePhoneDataset(config).values;
    auto model = BuildTestModel(data_, 15.0);
    ASSERT_TRUE(model.ok());
    model_ = std::move(*model);
    // Per-process suffix: ctest runs each test in its own process, and
    // every process re-runs SetUp — fixed names would race.
    const std::string pid = std::to_string(::getpid());
    model_path_ = ::testing::TempDir() + "/disk_model_" + pid + ".model";
    ASSERT_TRUE(model_.SaveToFile(model_path_).ok());
  }

  Matrix data_;
  SvddModel model_;
  std::string model_path_;
};

TEST_F(DiskBackedTest, OpenValidatesDims) {
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->model().rows(), model_.rows());
  EXPECT_EQ(store->model().cols(), model_.cols());
  EXPECT_EQ(store->model().k(), model_.k());
  EXPECT_TRUE(store->model().svd().u_on_disk());
}

TEST_F(DiskBackedTest, CellsMatchInMemoryModel) {
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  for (const std::size_t i : {0u, 7u, 99u, 149u}) {
    for (const std::size_t j : {0u, 13u, 39u}) {
      const auto value = store->ReconstructCell(i, j);
      ASSERT_TRUE(value.ok());
      EXPECT_NEAR(*value, model_.ReconstructCell(i, j), 1e-12);
    }
  }
}

TEST_F(DiskBackedTest, OneDiskAccessPerCell) {
  // The paper's headline: a single cell reconstruction costs one disk
  // access (the read of row i of U; V, eigenvalues and deltas are pinned).
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  store->ResetCounters();
  const int queries = 25;
  for (int q = 0; q < queries; ++q) {
    ASSERT_TRUE(store->ReconstructCell(q * 5 % 150, q % 40).ok());
  }
  EXPECT_EQ(store->disk_accesses(), static_cast<std::uint64_t>(queries));
}

TEST_F(DiskBackedTest, RowReconstructionSingleAccess) {
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  std::vector<double> row(model_.cols());
  store->ResetCounters();
  ASSERT_TRUE(store->model().TryReconstructRow(42, row).ok());
  EXPECT_EQ(store->disk_accesses(), 1u);
  for (std::size_t j = 0; j < model_.cols(); ++j) {
    EXPECT_NEAR(row[j], model_.ReconstructCell(42, j), 1e-12);
  }
}

TEST_F(DiskBackedTest, OutOfRangeRejected) {
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->ReconstructCell(150, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store->ReconstructCell(0, 40).status().code(),
            StatusCode::kOutOfRange);
  std::vector<double> row(40);
  EXPECT_EQ(store->model().TryReconstructRow(150, row).code(),
            StatusCode::kOutOfRange);
  // A region requires in-range ids and checks them only in debug builds.
  // In release builds a bad row still fails, but with the row reader's
  // OUT_OF_RANGE: the region code itself does not check.
  Matrix region;
  const std::vector<std::size_t> ids = {0, 150};
#ifdef NDEBUG
  EXPECT_EQ(store->model().ReconstructRegion(ids, {ids.data(), 1}, &region)
                .code(),
            StatusCode::kOutOfRange);
#else
  EXPECT_DEATH((void)store->model().ReconstructRegion(ids, {ids.data(), 1},
                                                      &region),
               "");
#endif
}

TEST_F(DiskBackedTest, BatchedCellsMatchPerCellPath) {
  // The cell path and the region path over the same cells agree, with
  // and without a buffer pool.
  for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{64}}) {
    DiskBackedOptions options;
    options.cache_blocks = cache_blocks;
    auto store = DiskBackedStore::Open(model_path_, options);
    ASSERT_TRUE(store.ok()) << "cache_blocks=" << cache_blocks;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < 150; i += 7) rows.push_back(i);
    const std::vector<std::size_t> cols = {0, 11, 22, 33};
    Matrix region;
    ASSERT_TRUE(store->model().ReconstructRegion(rows, cols, &region).ok());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const auto single = store->ReconstructCell(rows[r], cols[c]);
        ASSERT_TRUE(single.ok());
        EXPECT_NEAR(region(r, c), *single, 1e-12);
        EXPECT_EQ(*single, model_.ReconstructCell(rows[r], cols[c]));
      }
    }
  }
}

TEST_F(DiskBackedTest, DuplicateCellsSeeDeltasInSweepPath) {
  // A batch naming the same cell twice must apply the cell's delta to
  // every occurrence, on disk and in the in-memory model it mirrors (an
  // earlier table-sweep path kept only the first).
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  const std::shared_ptr<const DeltaIndex> deltas = store->model().deltas();
  ASSERT_GT(deltas->size(), 0u);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  deltas->ForEach([&](std::size_t row, std::size_t col, double) {
    cells.emplace_back(row, col);
    cells.emplace_back(row, col);  // duplicate occurrence
  });
  for (std::size_t n = 0; n < cells.size(); ++n) {
    const auto [row, col] = cells[n];
    const auto single = store->ReconstructCell(row, col);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*single, model_.ReconstructCell(row, col)) << "cell " << n;
    std::vector<double> full_row(model_.cols());
    ASSERT_TRUE(store->model().TryReconstructRow(row, full_row).ok());
    EXPECT_NEAR(full_row[col], *single, 1e-12) << "cell " << n;
  }
}

TEST_F(DiskBackedTest, DuplicateRegionIdsSeeDeltasInSweepPath) {
  // Same property for regions: every occurrence of a duplicated row id
  // must get the row's deltas (an earlier sweep patched only the first).
  // Inject a delta of +100 at a known cell so a missed duplicate is off
  // by 100, far outside GEMM rounding noise.
  const std::size_t delta_row = 3;
  const std::size_t delta_col = 5;
  const double exact = model_.ReconstructCell(delta_row, delta_col) + 100.0;
  ASSERT_TRUE(model_.PatchCell(delta_row, delta_col, exact).ok());
  ASSERT_TRUE(model_.SaveToFile(model_path_).ok());
  auto store = DiskBackedStore::Open(model_path_);
  ASSERT_TRUE(store.ok());
  // Full region plus one duplicated row.
  std::vector<std::size_t> rows(data_.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  rows.push_back(delta_row);
  std::vector<std::size_t> cols(data_.cols());
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  Matrix region;
  ASSERT_TRUE(store->model().ReconstructRegion(rows, cols, &region).ok());
  Matrix model_region;
  ASSERT_TRUE(model_.ReconstructRegion(rows, cols, &model_region).ok());
  const std::size_t dup = rows.size() - 1;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto want = store->ReconstructCell(delta_row, c);
    ASSERT_TRUE(want.ok());
    EXPECT_NEAR(region(delta_row, c), *want, 1e-9) << "col " << c;
    EXPECT_NEAR(region(dup, c), *want, 1e-9) << "dup col " << c;
    EXPECT_NEAR(model_region(dup, c), *want, 1e-9) << "model dup col " << c;
  }
  EXPECT_NEAR(region(dup, delta_col), exact, 1e-9);
}

TEST_F(DiskBackedTest, BatchedRegionMatchesModel) {
  DiskBackedOptions options;
  options.cache_blocks = 64;
  auto store = DiskBackedStore::Open(model_path_, options);
  ASSERT_TRUE(store.ok());
  const std::vector<std::size_t> rows = {0, 3, 9, 77, 149};
  const std::vector<std::size_t> cols = {1, 5, 39};
  Matrix region;
  ASSERT_TRUE(store->model().ReconstructRegion(rows, cols, &region).ok());
  Matrix want;
  ASSERT_TRUE(model_.ReconstructRegion(rows, cols, &want).ok());
  ASSERT_EQ(region.rows(), want.rows());
  ASSERT_EQ(region.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      EXPECT_NEAR(region(r, c), want(r, c), 1e-12) << r << "," << c;
    }
  }
}

TEST_F(DiskBackedTest, ExplicitBackendsAgree) {
  std::vector<IoBackendKind> kinds = {IoBackendKind::kStream,
                                      IoBackendKind::kPread};
  if (MmapAvailable()) kinds.push_back(IoBackendKind::kMmap);
  for (const IoBackendKind kind : kinds) {
    DiskBackedOptions options;
    options.io_backend = kind;
    auto store = DiskBackedStore::Open(model_path_, options);
    ASSERT_TRUE(store.ok()) << IoBackendName(kind);
    EXPECT_STREQ(store->io_backend_name(), IoBackendName(kind));
    const auto value = store->ReconstructCell(42, 7);
    ASSERT_TRUE(value.ok());
    EXPECT_NEAR(*value, model_.ReconstructCell(42, 7), 1e-12);
  }
}

TEST_F(DiskBackedTest, ViewDelegatesWithPrefetchHook) {
  DiskBackedOptions options;
  options.cache_blocks = 64;
  auto store = DiskBackedStore::Open(model_path_, options);
  ASSERT_TRUE(store.ok());
  const DiskBackedStoreView view(&*store);
  EXPECT_EQ(view.rows(), model_.rows());
  EXPECT_EQ(view.cols(), model_.cols());
  EXPECT_EQ(view.compressed_domain(), &store->model());
  EXPECT_EQ(view.MethodName(), "svdd-disk");
  EXPECT_NEAR(view.ReconstructCell(10, 10),
              model_.ReconstructCell(10, 10), 1e-12);
  // Calls through the base interface reach the disk store's U rows.
  const CompressedStore& as_store = view;
  std::vector<double> row(as_store.cols());
  std::vector<double> want(as_store.cols());
  as_store.ReconstructRow(2, row);
  model_.ReconstructRow(2, want);
  for (std::size_t j = 0; j < row.size(); ++j) {
    EXPECT_NEAR(row[j], want[j], 1e-12) << "col " << j;
  }
  EXPECT_GT(store->disk_accesses(), 0u);
  // Space accounting matches the in-memory model's Section 5.1 rules.
  EXPECT_EQ(view.CompressedBytes(), model_.CompressedBytes());
}

TEST_F(DiskBackedTest, MissingFilesRejected) {
  EXPECT_FALSE(DiskBackedStore::Open("/nonexistent/model").ok());
  // A row store is not a model file: U's rows alone do not open.
  const std::string rows_path = model_path_ + ".rows";
  ASSERT_TRUE(WriteMatrixFile(rows_path, data_).ok());
  EXPECT_EQ(DiskBackedStore::Open(rows_path).status().code(),
            StatusCode::kIoError);
  std::remove(rows_path.c_str());
}

}  // namespace
}  // namespace tsc
