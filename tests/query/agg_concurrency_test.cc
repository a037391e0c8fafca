// ThreadSanitizer hammer for the aggregate hierarchy's locking story:
// one writer patching cells through SvddModel::PatchCell (the delta
// listener updates O(log N) tree nodes under the unique lock) while
// reader threads answer rollup queries under the shared lock. The
// delta table itself is single-writer, so the readers here stay on
// hierarchy-only paths (sum/avg/count — never row reconstruction).
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/svdd_compressor.h"
#include "cube/rollup.h"
#include "data/generators.h"
#include "query/executor.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsc {
namespace {

SvddModel BuildModel() {
  PhoneDatasetConfig config;
  config.num_customers = 96;
  config.num_days = 32;
  config.spike_probability = 0.03;
  const Matrix data = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 25.0;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

TEST(AggConcurrencyTest, ConcurrentPatchesVersusRollupReads) {
  SvddModel model = BuildModel();
  QueryExecutor executor(&model);
  ASSERT_NE(executor.rollup(), nullptr);

  constexpr int kReaders = 4;
  constexpr int kPatches = 300;
  constexpr int kQueriesPerReader = 200;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    Rng rng(1);
    for (int i = 0; i < kPatches; ++i) {
      const std::size_t row = rng.UniformUint64(model.rows());
      const std::size_t col = rng.UniformUint64(model.cols());
      if (!model.PatchCell(row, col, rng.UniformDouble() * 50.0).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Rotate through the hierarchy's three query shapes: ungrouped
      // RegionSum, grouped with full-width delta tree reads, grouped
      // with partial-width per-row list filtering.
      const char* kQueries[] = {
          "select sum(value), avg(value), count(*)",
          "select sum(value) where row in 5:90 group by row",
          "select sum(value) where row in 0:95 and col in 4:20 group by col",
      };
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const auto result = executor.Execute(kQueries[(r + q) % 3]);
        if (!result.ok() || result->rows_reconstructed != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  go.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced consistency: the incrementally-maintained hierarchy must
  // now agree with one rebuilt from the final delta table.
  QueryExecutor rebuilt(&model);
  const auto live = executor.Execute("select sum(value), count(*)");
  const auto fresh = rebuilt.Execute("select sum(value), count(*)");
  ASSERT_TRUE(live.ok() && fresh.ok());
  EXPECT_NEAR(live->values[0], fresh->values[0],
              1e-7 * std::abs(fresh->values[0]) + 1e-8);
  EXPECT_DOUBLE_EQ(live->values[1], fresh->values[1]);
}

TEST(AggConcurrencyTest, DirectHierarchyHammer) {
  SvddModel model = BuildModel();
  const auto hierarchy = AggregateHierarchy::Build(model);

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const IdRange rows{static_cast<std::size_t>(r * 3),
                         model.rows() - 1 - static_cast<std::size_t>(r)};
      const IdRange partial_cols{2, model.cols() / 2};
      const IdRange full_cols{0, model.cols() - 1};
      while (!stop.load(std::memory_order_acquire)) {
        RollupStats stats;
        const double full =
            hierarchy->RegionSum({&rows, 1}, {&full_cols, 1}, &stats);
        const double part =
            hierarchy->RegionSum({&rows, 1}, {&partial_cols, 1}, &stats);
        if (!std::isfinite(full) || !std::isfinite(part)) break;
      }
    });
  }
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::size_t row = rng.UniformUint64(model.rows());
    const std::size_t col = rng.UniformUint64(model.cols());
    ASSERT_TRUE(model.PatchCell(row, col, rng.UniformDouble()).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Exact agreement on the delta side once writes quiesce: count is an
  // integer and the rebuilt tree folds the same set of deltas.
  const auto fresh = AggregateHierarchy::Build(model);
  const IdRange all_rows{0, model.rows() - 1};
  const IdRange all_cols{0, model.cols() - 1};
  RollupStats a, b;
  const double live_sum =
      hierarchy->DeltaSum({&all_rows, 1}, {&all_cols, 1}, &a);
  const double fresh_sum =
      fresh->DeltaSum({&all_rows, 1}, {&all_cols, 1}, &b);
  EXPECT_NEAR(live_sum, fresh_sum, 1e-7 * std::abs(fresh_sum) + 1e-8);
}

TEST(AggConcurrencyTest, FoldInStalenessConvergesUnderConcurrentReaders) {
  SvddModel model = BuildModel();
  const QueryExecutor executor(&model);
  ASSERT_NE(executor.rollup(), nullptr);

  // Fold rows in BEFORE the hammer: the hierarchy goes stale, then N
  // concurrent readers race to trigger its lazy rebuild.
  Matrix appended(8, model.cols());
  Rng rng(9);
  for (std::size_t r = 0; r < appended.rows(); ++r) {
    for (std::size_t c = 0; c < appended.cols(); ++c) {
      appended(r, c) = 5.0 + rng.UniformDouble() * 20.0;
    }
  }
  model.FoldInRows(appended);

  constexpr int kReaders = 6;
  const std::string query = "select sum(value), count(value)";
  std::atomic<bool> go{false};
  std::vector<double> sums(kReaders, 0.0);
  std::vector<double> counts(kReaders, 0.0);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      auto result = executor.Execute(query);
      if (!result.ok() || result->values.size() != 2) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      sums[t] = result->values[0];
      counts[t] = result->values[1];
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  ASSERT_EQ(failures.load(), 0);

  // Every racer saw the same (fresh) answer, covering all rows
  // including the folded-in ones.
  const double expected_count =
      static_cast<double>(model.rows() * model.cols());
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(sums[t], sums[0]) << "reader " << t;
    EXPECT_EQ(counts[t], expected_count) << "reader " << t;
  }
  auto after = executor.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->values[0], sums[0]);
}

}  // namespace
}  // namespace tsc
