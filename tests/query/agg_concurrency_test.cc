// ThreadSanitizer hammers for patches racing reads. SvddModel::PatchCell
// publishes a new DeltaIndex snapshot by atomic swap and never mutates
// one a reader holds, so readers take every path: cell, row and region
// reconstruction, block-sum region sums, grouped aggregates and the
// block-bound max. Each answer must equal the answer of one published
// snapshot.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
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

SvddModel BuildModel(std::size_t rows = 96) {
  PhoneDatasetConfig config;
  config.num_customers = rows;
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
  // 5000 rows: the longer selections below span several of the delta
  // index's column-sum checkpoints.
  SvddModel model = BuildModel(5000);
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
      // Rotate through the aggregate shapes: ungrouped RegionSum,
      // per-row sums over the row CSR, per-column range sums over short
      // runs (walked) and long ones (from checkpoints).
      const char* kQueries[] = {
          "select sum(value), avg(value), count(*)",
          "select sum(value) where row in 5:90 group by row",
          "select sum(value) where row in 0:95 and col in 4:20 group by col",
          "select sum(value) where row in 700:4300 and col in 4:20 "
          "group by col",
          "select sum(value), avg(value) where row in 1000:1030,1500:4999",
      };
      constexpr int kShapes = sizeof(kQueries) / sizeof(kQueries[0]);
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const auto result = executor.Execute(kQueries[(r + q) % kShapes]);
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

  // Quiesced consistency: the live executor must now agree with one
  // built after the last patch.
  QueryExecutor rebuilt(&model);
  const auto live = executor.Execute("select sum(value), count(*)");
  const auto fresh = rebuilt.Execute("select sum(value), count(*)");
  ASSERT_TRUE(live.ok() && fresh.ok());
  EXPECT_NEAR(live->values[0], fresh->values[0],
              1e-7 * std::abs(fresh->values[0]) + 1e-8);
  EXPECT_DOUBLE_EQ(live->values[1], fresh->values[1]);
}

TEST(AggConcurrencyTest, PatchesRaceBlockBoundMaxQueries) {
  // The model's 96 rows span two row blocks, so max runs the block-bound
  // search: one delta snapshot for the bounds, and the reconstructions
  // load their own. The writer lifts cells above every value held so
  // far, so every snapshot's max lies between the first and the last.
  SvddModel model = BuildModel();
  QueryExecutor executor(&model);
  const char* kMax = "select max(value)";
  const auto first = executor.Execute(kMax);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->strategy_summary, "max=block-bound");
  const double initial = first->values[0];

  constexpr int kReaders = 3;
  constexpr int kPatches = 200;
  constexpr int kQueriesPerReader = 60;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    Rng rng(3);
    for (int i = 1; i <= kPatches; ++i) {
      const std::size_t row = rng.UniformUint64(model.rows());
      const std::size_t col = rng.UniformUint64(model.cols());
      if (!model.PatchCell(row, col, initial + i).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int q = 0; q < kQueriesPerReader; ++q) {
        if ((r + q) % 2 == 0) {
          const auto result = executor.Execute(kMax);
          if (!result.ok() || result->values[0] < initial ||
              result->values[0] > initial + kPatches + 1.0) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          const auto result = executor.Execute(
              "select max(value), min(value) where col in 2:20 group by col");
          if (!result.ok() || result->values.size() != 2 * 19) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: the search's answer is the scan's double.
  const auto fast = executor.Execute(kMax);
  const auto scan = executor.Execute("select max(value), median(value)");
  ASSERT_TRUE(fast.ok() && scan.ok());
  EXPECT_EQ(fast->values[0], scan->values[0]);
  EXPECT_GE(fast->values[0], initial + kPatches - 1.0);
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
            hierarchy->RegionSum({&rows, 1}, {&full_cols, 1}, &stats).value();
        const double part =
            hierarchy->RegionSum({&rows, 1}, {&partial_cols, 1}, &stats)
                .value();
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

  // Once writes quiesce both views read the same delta snapshot.
  const auto fresh = AggregateHierarchy::Build(model);
  const IdRange all_rows{0, model.rows() - 1};
  const IdRange all_cols{0, model.cols() - 1};
  const double live_sum =
      hierarchy->RegionSum({&all_rows, 1}, {&all_cols, 1}, nullptr).value();
  const double fresh_sum =
      fresh->RegionSum({&all_rows, 1}, {&all_cols, 1}, nullptr).value();
  EXPECT_EQ(live_sum, fresh_sum);
}

TEST(AggConcurrencyTest, FoldInStalenessConvergesUnderConcurrentReaders) {
  SvddModel model = BuildModel();
  const QueryExecutor executor(&model);
  ASSERT_NE(executor.rollup(), nullptr);

  // Fold rows in BEFORE the hammer (a fold-in must not race reads): the
  // model rebuilds its block sums, then N concurrent readers answer
  // from them.
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

/// Answers of the snapshot-hammer queries, as raw doubles.
std::vector<double> SnapshotAnswer(const SvddModel& model,
                                   const QueryExecutor& executor, int query) {
  std::vector<double> out;
  switch (query) {
    case 0: {  // one of the cells the writer patches
      out.push_back(model.ReconstructCell(7, 35 % model.cols()));
      break;
    }
    case 1: {  // one full row
      out.resize(model.cols());
      model.ReconstructRow(17, out);
      break;
    }
    case 2: {  // a region with a repeated row and unsorted columns
      const std::vector<std::size_t> rows = {3, 40, 3, 95, 0};
      const std::vector<std::size_t> cols = {9, 2, 31, 2, 0};
      Matrix region;
      model.ReconstructRegion(rows, cols, &region);
      out = region.data();
      break;
    }
    case 3: {  // block-sum region sum
      const IdRange rows{5, 90};
      const IdRange cols{4, 20};
      out.push_back(executor.rollup()
                        ->RegionSum({&rows, 1}, {&cols, 1}, nullptr)
                        .value());
      break;
    }
    default: {  // grouped aggregates
      const char* sql =
          query == 4
              ? "select sum(value) where row in 5:90 group by row"
              : "select sum(value) where row in 0:95 and col in 4:20 group by col";
      const auto result = executor.Execute(sql);
      TSC_CHECK_OK(result.status());
      out = result->values;
      break;
    }
  }
  return out;
}

TEST(AggConcurrencyTest, ReadersSeeOnePublishedSnapshot) {
  constexpr int kQueries = 6;
  SvddModel model = BuildModel();
  // The writer's patches: overwrites of stored deltas, fresh cells, and
  // cells patched twice, with more fresh cells than the overlay holds so
  // at least one merge into a new base happens mid-hammer.
  std::vector<std::pair<std::size_t, std::size_t>> stored;
  model.deltas()->ForEach([&](std::size_t i, std::size_t j, double) {
    stored.emplace_back(i, j);
  });
  ASSERT_FALSE(stored.empty());
  struct Patch {
    std::size_t row, col;
    double value;
  };
  std::vector<Patch> patches;
  Rng rng(11);
  for (int p = 0; p < 1400; ++p) {
    const std::uint64_t kind = rng.UniformUint64(4);
    std::size_t row = rng.UniformUint64(model.rows());
    std::size_t col = rng.UniformUint64(model.cols());
    if (kind == 0) {
      std::tie(row, col) = stored[rng.UniformUint64(stored.size())];
    } else if (kind == 1 && !patches.empty()) {
      row = patches.back().row;
      col = patches.back().col;
    } else if (kind == 2) {  // the row and cells the readers sample
      row = rng.UniformUint64(2) == 0
                ? 17
                : 7 * rng.UniformUint64((model.rows() + 6) / 7);
      if (row != 17) col = (row * 5) % model.cols();
    }
    patches.push_back({row, col, rng.UniformDouble() * 100.0 - 50.0});
  }
  std::set<std::pair<std::size_t, std::size_t>> fresh_cells;
  for (const Patch& patch : patches) {
    if (!model.deltas()->Find(patch.row, patch.col).has_value()) {
      fresh_cells.insert({patch.row, patch.col});
    }
  }
  ASSERT_GT(fresh_cells.size(), DeltaIndex::kMaxOverlay);

  // Every published snapshot's answers, replayed on a copy.
  std::vector<std::vector<std::vector<double>>> allowed(kQueries);
  {
    SvddModel replay = model;
    const QueryExecutor replay_executor(&replay);
    for (std::size_t step = 0; step <= patches.size(); ++step) {
      for (int q = 0; q < kQueries; ++q) {
        allowed[q].push_back(SnapshotAnswer(replay, replay_executor, q));
      }
      if (step < patches.size()) {
        const Patch& patch = patches[step];
        TSC_CHECK_OK(replay.PatchCell(patch.row, patch.col, patch.value));
      }
    }
  }

  const QueryExecutor executor(&model);
  ASSERT_NE(executor.rollup(), nullptr);
  constexpr int kReaders = 4;
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int q = r; !done.load(std::memory_order_acquire) || q < r + 12;
           ++q) {
        const int query = q % kQueries;
        const std::vector<double> got =
            SnapshotAnswer(model, executor, query);
        const auto& options = allowed[query];
        if (std::find(options.begin(), options.end(), got) == options.end()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (const Patch& patch : patches) {
    ASSERT_TRUE(model.PatchCell(patch.row, patch.col, patch.value).ok());
    std::this_thread::yield();  // let readers land between snapshots
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0) << "of " << answers.load() << " answers";
  // After the writer, every query answers as the last snapshot.
  for (int q = 0; q < kQueries; ++q) {
    EXPECT_EQ(SnapshotAnswer(model, executor, q), allowed[q].back())
        << "query " << q;
  }
}

}  // namespace
}  // namespace tsc
