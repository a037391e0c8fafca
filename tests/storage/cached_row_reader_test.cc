#include "storage/cached_row_reader.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "storage/row_source.h"
#include "storage/serializer.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.Gaussian();
  return x;
}

TEST(CachedRowReaderStatsTest, ExposesHitAndMissCounts) {
  const Matrix x = RandomMatrix(32, 8, 5);
  const std::string path = TempPath("cached_counts.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  CachedRowReader cached(std::move(*reader), /*capacity_blocks=*/64);

  std::vector<double> row(x.cols());
  ASSERT_TRUE(cached.ReadRow(3, row).ok());
  const std::uint64_t cold_accesses = cached.disk_accesses();
  EXPECT_GT(cold_accesses, 0u);

  ASSERT_TRUE(cached.ReadRow(3, row).ok());
  // The repeat served from cache: no new disk accesses, hits moved.
  EXPECT_EQ(cached.disk_accesses(), cold_accesses);
  EXPECT_GT(cached.cache_hits(), 0u);
  std::remove(path.c_str());
}

TEST(CachedRowReaderStatsTest, FullyCachedRereadCostsZeroDiskAccesses) {
  // Regression for the hit-rate accounting: a dataset that fits in the
  // cache must serve a complete second pass without touching the disk.
  const Matrix x = RandomMatrix(24, 16, 6);
  const std::string path = TempPath("cached_full.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  CachedRowReader cached(std::move(*reader), /*capacity_blocks=*/256);

  std::vector<double> row(x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_TRUE(cached.ReadRow(i, row).ok());
  }
  const std::uint64_t cold_accesses = cached.disk_accesses();
  const std::uint64_t cold_hits = cached.cache_hits();

  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_TRUE(cached.ReadRow(i, row).ok());
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(row[j], x(i, j)) << "row " << i << " col " << j;
    }
  }
  EXPECT_EQ(cached.disk_accesses(), cold_accesses)
      << "second pass went back to disk despite a warm cache";
  const std::uint64_t hot_hits = cached.cache_hits() - cold_hits;
  EXPECT_GT(hot_hits, 0u);
  // Hit rate is computable from the two exposed counters.
  const double hit_rate =
      static_cast<double>(cached.cache_hits()) /
      static_cast<double>(cached.cache_hits() + cached.disk_accesses());
  EXPECT_GT(hit_rate, 0.4);
  std::remove(path.c_str());
}

TEST(CachedRowReaderStatsTest, ResetStatsZeroesBothCounters) {
  const Matrix x = RandomMatrix(8, 8, 7);
  const std::string path = TempPath("cached_reset.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  CachedRowReader cached(std::move(*reader), 16);
  std::vector<double> row(x.cols());
  ASSERT_TRUE(cached.ReadRow(0, row).ok());
  ASSERT_TRUE(cached.ReadRow(0, row).ok());
  cached.ResetStats();
  EXPECT_EQ(cached.disk_accesses(), 0u);
  EXPECT_EQ(cached.cache_hits(), 0u);
  std::remove(path.c_str());
}

TEST(DiskBackedStoreCacheTest, CachedModelRereadReportsZeroNewAccesses) {
  // The end-to-end version of the guarantee: open the serving layout with
  // a cache, touch every row once, and verify the whole workload re-runs
  // without one additional disk access.
  const Matrix x = RandomMatrix(40, 24, 8);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 25.0;
  options.max_candidates = 4;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const std::string path = TempPath("cached_store.model");
  ASSERT_TRUE(model->SaveToFile(path).ok());
  DiskBackedOptions disk_options;
  disk_options.cache_blocks = 512;
  auto store = DiskBackedStore::Open(path, disk_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const SvddModel& served = store->model();

  std::vector<double> row(served.cols());
  for (std::size_t i = 0; i < served.rows(); ++i) {
    ASSERT_TRUE(served.TryReconstructRow(i, row).ok());
  }
  const std::uint64_t cold_accesses = store->disk_accesses();
  EXPECT_GT(cold_accesses, 0u);

  for (std::size_t i = 0; i < served.rows(); ++i) {
    ASSERT_TRUE(served.TryReconstructRow(i, row).ok());
    ASSERT_TRUE(store->ReconstructCell(i, 0).ok());
  }
  EXPECT_EQ(store->disk_accesses(), cold_accesses);
  EXPECT_GT(store->cache_hits(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsc
