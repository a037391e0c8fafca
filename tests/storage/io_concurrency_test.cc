// Thread-safety hammer for the I/O engine: many threads reading one
// RowStoreReader (per backend) and a DiskBackedStore serving parallel
// cell queries through a shared buffer pool.
// Runs plain under `ctest -L io` and instrumented under the tsan preset
// (the shared "io-tsan" label matches both -L regexes).

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "data/generators.h"
#include "storage/row_source.h"
#include "storage/io_backend.h"
#include "storage/row_store.h"
#include "util/rng.h"

namespace tsc {
namespace {

constexpr std::size_t kThreads = 8;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.Gaussian();
  return x;
}

std::vector<IoBackendKind> AllBackends() {
  std::vector<IoBackendKind> kinds = {IoBackendKind::kStream,
                                      IoBackendKind::kPread};
  if (MmapAvailable()) kinds.push_back(IoBackendKind::kMmap);
  return kinds;
}

// The tentpole thread-safety claim: 8 threads on ONE reader, every
// backend, no shared seek cursor anywhere, values always correct.
TEST(IoConcurrencyTest, EightThreadsOneReader) {
  const Matrix x = RandomMatrix(96, 31, 1);
  const std::string path = TempPath("conc_reader.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    auto reader = RowStoreReader::Open(path, kind);
    ASSERT_TRUE(reader.ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<double> row(x.cols());
        std::vector<double> scratch(x.cols());
        Rng rng(100 + t);
        for (int iter = 0; iter < 300; ++iter) {
          const std::size_t i =
              static_cast<std::size_t>(rng.UniformUint64(x.rows()));
          if (!reader->ReadRow(i, row).ok()) {
            ++failures;
            continue;
          }
          for (std::size_t j = 0; j < x.cols(); ++j) {
            if (row[j] != x(i, j)) ++failures;
          }
          const auto view = reader->ReadRowView(i, scratch);
          if (!view.ok() || (*view)[0] != x(i, 0)) ++failures;
          const auto cell = reader->ReadCell(i, iter % x.cols());
          if (!cell.ok() || *cell != x(i, iter % x.cols())) ++failures;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);
    // The atomic counter saw every accounted access without tearing.
    EXPECT_GT(reader->counter().accesses(), 0u);
  }
}

TEST(IoConcurrencyTest, DiskBackedStoreParallelCells) {
  PhoneDatasetConfig config;
  config.num_customers = 80;
  config.num_days = 30;
  const Matrix data = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("conc.model");
  ASSERT_TRUE(model->SaveToFile(path).ok());

  DiskBackedOptions disk_options;
  disk_options.cache_blocks = 16;
  auto store = DiskBackedStore::Open(path, disk_options);
  ASSERT_TRUE(store.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      const SvddModel& served = store->model();
      std::vector<std::size_t> rows(8);
      std::vector<std::size_t> cols(3);
      Matrix region;
      for (int iter = 0; iter < 100; ++iter) {
        const std::size_t i =
            static_cast<std::size_t>(rng.UniformUint64(served.rows()));
        const std::size_t j =
            static_cast<std::size_t>(rng.UniformUint64(served.cols()));
        const auto value = store->ReconstructCell(i, j);
        if (!value.ok() ||
            std::abs(*value - model->ReconstructCell(i, j)) > 1e-9) {
          ++failures;
        }
        for (auto& row : rows) row = rng.UniformUint64(served.rows());
        for (auto& col : cols) col = rng.UniformUint64(served.cols());
        if (!served.ReconstructRegion(rows, cols, &region).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace tsc
