#include "query/executor.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/disk_backed.h"
#include "data/generators.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/stats.h"
#include "scan_only_store.h"

namespace tsc {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PhoneDatasetConfig config;
    config.num_customers = 150;
    config.num_days = 40;
    config.spike_probability = 0.01;
    data_ = new Matrix(GeneratePhoneDataset(config).values);
    MatrixRowSource source(data_);
    SvddBuildOptions options;
    options.space_percent = 25.0;
    auto model = BuildSvddModel(&source, options);
    TSC_CHECK_OK(model.status());
    model_ = new SvddModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete model_;
  }

  static Matrix* data_;
  static SvddModel* model_;
};

Matrix* ExecutorTest::data_ = nullptr;
SvddModel* ExecutorTest::model_ = nullptr;

TEST_F(ExecutorTest, ExactExecutorMatchesHandComputation) {
  Matrix tiny = Matrix::FromRows({{1, 2}, {3, 4}});
  const auto result =
      ExecuteExact(tiny, "select sum(value), avg(value), min(value), "
                         "max(value), count(*)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->values[0], 10.0);
  EXPECT_DOUBLE_EQ(result->values[1], 2.5);
  EXPECT_DOUBLE_EQ(result->values[2], 1.0);
  EXPECT_DOUBLE_EQ(result->values[3], 4.0);
  EXPECT_DOUBLE_EQ(result->values[4], 4.0);
}

TEST_F(ExecutorTest, CompressedDomainMatchesRowReconstruction) {
  // Force both paths for the same query and compare: they evaluate the
  // same model, so the sums must agree to rounding.
  const std::string query =
      "select sum(value) where row in 0:99 and col in 0:19";
  QueryExecutor with_fast_path(model_);
  const ScanOnlyStore scan_store(model_);
  QueryExecutor generic(&scan_store);
  const auto fast = with_fast_path.Execute(query);
  const auto slow = generic.Execute(query);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->compressed_domain_aggregates, 1u);
  EXPECT_EQ(fast->rows_reconstructed, 0u);
  EXPECT_EQ(slow->compressed_domain_aggregates, 0u);
  EXPECT_EQ(slow->rows_reconstructed, 100u);
  EXPECT_NEAR(fast->values[0], slow->values[0],
              1e-8 * std::abs(slow->values[0]));
}

TEST_F(ExecutorTest, DiskBackedViewMatchesInMemoryModel) {
  // Serving straight from the model file's disk layout: linear
  // aggregates run in the view's compressed domain over the same U rows
  // and block sums as the in-memory model's, so they match it bit for
  // bit; max and stddev scan through DiskBackedStoreView's
  // ReconstructRegion.
  const std::string path = ::testing::TempDir() + "/exec_disk.model";
  ASSERT_TRUE(model_->SaveToFile(path).ok());
  DiskBackedOptions options;
  options.cache_blocks = 64;
  auto store = DiskBackedStore::Open(path, options);
  ASSERT_TRUE(store.ok());
  const DiskBackedStoreView view(&*store);
  const QueryExecutor from_disk(&view);
  const QueryExecutor from_memory(model_);
  for (const std::string query :
       {"select sum(value), avg(value) where row in 0:99",
        "select max(value), stddev(value) where row in 10:59 and col in 5:30",
        "select sum(value) where row in 0:19 group by row"}) {
    const auto disk = from_disk.Execute(query);
    const auto memory = from_memory.Execute(query);
    ASSERT_TRUE(disk.ok()) << query;
    ASSERT_TRUE(memory.ok()) << query;
    ASSERT_EQ(disk->values.size(), memory->values.size()) << query;
    const bool linear = query.find("max") == std::string::npos;
    EXPECT_EQ(disk->compressed_domain_aggregates,
              memory->compressed_domain_aggregates)
        << query;
    for (std::size_t v = 0; v < memory->values.size(); ++v) {
      if (linear) {
        EXPECT_EQ(disk->values[v], memory->values[v]) << query;
      } else {
        EXPECT_NEAR(disk->values[v], memory->values[v],
                    1e-9 * std::max(1.0, std::abs(memory->values[v])))
            << query;
      }
    }
  }
  EXPECT_GT(store->cache_hits() + store->disk_accesses(), 0u);
}

TEST_F(ExecutorTest, ApproximateCloseToExact) {
  const std::string query =
      "select avg(value) where row between 0 and 149 and col between 0 "
      "and 39";
  QueryExecutor executor(model_);
  const auto approx = executor.Execute(query);
  const auto exact = ExecuteExact(*data_, query);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  // Spike cells that missed the delta budget bias the region sum, so a
  // few percent of slack is expected at this small budget.
  EXPECT_NEAR(approx->values[0], exact->values[0],
              0.06 * std::abs(exact->values[0]));
}

TEST_F(ExecutorTest, MixedStrategiesShareOneSweep) {
  QueryExecutor executor(model_);
  const auto result = executor.Execute(
      "select sum(value), max(value), stddev(value) where row in 0:49");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_reconstructed, 50u);       // one sweep for max+stddev
  EXPECT_EQ(result->compressed_domain_aggregates, 1u);  // sum via factors
  ASSERT_EQ(result->values.size(), 3u);
}

TEST_F(ExecutorTest, CountIsExactEitherWay) {
  QueryExecutor executor(model_);
  const auto result =
      executor.Execute("select count(*) where row in 0:9 and col in 0:3");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->values[0], 40.0);
}

TEST_F(ExecutorTest, ExplainShowsPlanWithoutExecuting) {
  QueryExecutor executor(model_);
  const auto plan = executor.Explain("select sum(value) where row in 0:9");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("10 rows"), std::string::npos);
  // Linear aggregates over an SVDD model plan in the compressed domain.
  EXPECT_NE(plan->find("compressed-domain"), std::string::npos);
}

TEST_F(ExecutorTest, GroupByColMatchesPerColumnQueries) {
  QueryExecutor executor(model_);
  const auto grouped = executor.Execute(
      "select sum(value) where row in 0:29 and col in 3,7,11 group by col");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->group_count(), 3u);
  EXPECT_EQ(grouped->group_keys, (std::vector<std::size_t>{3, 7, 11}));
  for (std::size_t g = 0; g < 3; ++g) {
    const std::size_t j = grouped->group_keys[g];
    const auto single = executor.Execute(
        "select sum(value) where row in 0:29 and col in " +
        std::to_string(j));
    ASSERT_TRUE(single.ok());
    EXPECT_NEAR(grouped->ValueAt(g, 0), single->values[0],
                1e-8 * std::abs(single->values[0]) + 1e-9);
  }
}

TEST_F(ExecutorTest, GroupByRowMatchesModelRowStats) {
  // Grouping mechanics: the grouped answer must equal what the model's
  // own reconstructed rows yield (exactness vs the raw data is a model-
  // accuracy property tested elsewhere, not a grouping property —
  // per-row max is especially sensitive to missed spikes).
  QueryExecutor executor(model_);
  const std::string query =
      "select avg(value), max(value) where row in 5,9 group by row";
  const auto grouped = executor.Execute(query);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->group_count(), 2u);
  EXPECT_EQ(grouped->group_keys, (std::vector<std::size_t>{5, 9}));
  for (std::size_t g = 0; g < 2; ++g) {
    std::vector<double> row(model_->cols());
    model_->ReconstructRow(grouped->group_keys[g], row);
    double total = 0.0;
    double worst = row[0];
    for (const double v : row) {
      total += v;
      worst = std::max(worst, v);
    }
    EXPECT_NEAR(grouped->ValueAt(g, 0),
                total / static_cast<double>(row.size()), 1e-9);
    EXPECT_NEAR(grouped->ValueAt(g, 1), worst, 1e-9);
  }
}

TEST_F(ExecutorTest, GroupedCompressedDomainMatchesReconstruction) {
  const std::string query =
      "select sum(value) where row in 0:49 group by col";
  QueryExecutor fast(model_);
  const ScanOnlyStore scan_store(model_);
  QueryExecutor slow(&scan_store);
  const auto a = fast.Execute(query);
  const auto b = slow.Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->group_count(), model_->cols());
  ASSERT_EQ(b->group_count(), model_->cols());
  EXPECT_EQ(a->compressed_domain_aggregates, 1u);
  for (std::size_t g = 0; g < a->group_count(); ++g) {
    EXPECT_NEAR(a->ValueAt(g, 0), b->ValueAt(g, 0),
                1e-7 * std::abs(b->ValueAt(g, 0)) + 1e-8);
  }
}

TEST_F(ExecutorTest, GroupByCountIsPerGroupCells) {
  QueryExecutor executor(model_);
  const auto result = executor.Execute(
      "select count(*) where row in 0:9 and col in 0:4 group by row");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_count(), 10u);
  for (std::size_t g = 0; g < 10; ++g) {
    EXPECT_DOUBLE_EQ(result->ValueAt(g, 0), 5.0);
  }
}

TEST_F(ExecutorTest, MedianAggregateEndToEnd) {
  // Exact executor: hand-checkable.
  Matrix tiny = Matrix::FromRows({{1, 2, 3}, {4, 5, 60}});
  const auto exact = ExecuteExact(tiny, "select median(value)");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->values[0], 3.5);

  // Grouped median by row.
  const auto grouped =
      ExecuteExact(tiny, "select median(value) group by row");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->group_count(), 2u);
  EXPECT_DOUBLE_EQ(grouped->ValueAt(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(grouped->ValueAt(1, 0), 5.0);

  // Against the model: median equals the median of its reconstruction.
  QueryExecutor executor(model_);
  const auto result =
      executor.Execute("select median(value) where row in 3 and col in 0:9");
  ASSERT_TRUE(result.ok());
  std::vector<double> cells;
  for (std::size_t j = 0; j < 10; ++j) {
    cells.push_back(model_->ReconstructCell(3, j));
  }
  std::sort(cells.begin(), cells.end());
  EXPECT_NEAR(result->values[0], (cells[4] + cells[5]) / 2.0, 1e-9);

  // Median always plans as row reconstruction.
  const auto plan = executor.Explain("select median(value)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("median(value) via row-reconstruction"),
            std::string::npos);
}

TEST_F(ExecutorTest, GroupByParseErrors) {
  QueryExecutor executor(model_);
  EXPECT_FALSE(executor.Execute("select sum(value) group by value").ok());
  EXPECT_FALSE(executor.Execute("select sum(value) group col").ok());
}

TEST_F(ExecutorTest, ParseAndRangeErrorsPropagate) {
  QueryExecutor executor(model_);
  EXPECT_FALSE(executor.Execute("selct sum(value)").ok());
  EXPECT_FALSE(executor.Execute("select sum(value) where row in 99999").ok());
}

TEST_F(ExecutorTest, ExecuteFillsStageLatencies) {
  QueryExecutor executor(model_);
  const auto result = executor.Execute("select sum(value)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
#ifndef TSC_OBS_DISABLED
  EXPECT_GT(result->parse_us, 0.0);
  EXPECT_GT(result->plan_us, 0.0);
  EXPECT_GT(result->exec_us, 0.0);
#endif
}

TEST_F(ExecutorTest, AnalyzeFooterReportsStagesAndScanCounts) {
  QueryExecutor executor(model_);
  const auto result =
      executor.Execute("select avg(value) where row in 0:19");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string footer = result->AnalyzeFooter();
  // One "-- " line per fact; stable enough for the docs' example.
  EXPECT_NE(footer.find("-- "), std::string::npos);
  EXPECT_NE(footer.find("groups"), std::string::npos);
  EXPECT_NE(footer.find("rows reconstructed"), std::string::npos);
  EXPECT_NE(footer.find("parse"), std::string::npos);
  EXPECT_NE(footer.find("exec"), std::string::npos);
  // The footer reflects this result's numbers.
  EXPECT_NE(footer.find(std::to_string(result->rows_reconstructed)),
            std::string::npos);
}

TEST_F(ExecutorTest, DeltasVisibleToCompressedDomainSum) {
  // Patch a cell, then query a region containing it with the fast path:
  // the result must include the patch.
  SvddModel patched = *model_;
  const std::string query =
      "select sum(value) where row in 0:49 and col in 0:9";
  QueryExecutor before_exec(&patched);
  const auto before = before_exec.Execute(query);
  ASSERT_TRUE(before.ok());
  const double old_cell = patched.ReconstructCell(10, 5);
  ASSERT_TRUE(patched.PatchCell(10, 5, old_cell + 500.0).ok());
  QueryExecutor after_exec(&patched);
  const auto after = after_exec.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after->values[0] - before->values[0], 500.0, 1e-6);
}

TEST_F(ExecutorTest, ThreadCountDoesNotChangeAnyBit) {
  // The scan deals rows to a fixed shard count and reduces in shard
  // order, so --threads only changes which thread runs a shard, never
  // the summation order: every aggregate must be bit-identical between
  // a serial and a 4-thread executor.
  const std::vector<std::string> queries = {
      "select sum(value), avg(value), count(*), min(value), max(value), "
      "stddev(value) where row in 0:149 and col in 0:39",
      "select sum(value), stddev(value) where row in 3:140 and col in 1:30 "
      "group by row",
      "select avg(value), max(value) where row in 0:100 and col in 0:39 "
      "group by col",
      "select median(value) where row in 0:99 and col in 0:19",
  };
  for (const std::string& query : queries) {
    const ScanOnlyStore scan_store(model_);
    const QueryExecutor serial(&scan_store, 1);
    const QueryExecutor threaded(&scan_store, 4);
    const auto a = serial.Execute(query);
    const auto b = threaded.Execute(query);
    ASSERT_TRUE(a.ok()) << query;
    ASSERT_TRUE(b.ok()) << query;
    ASSERT_EQ(a->values.size(), b->values.size()) << query;
    for (std::size_t i = 0; i < a->values.size(); ++i) {
      EXPECT_EQ(a->values[i], b->values[i])
          << query << " value " << i << " differs between thread counts";
    }
    EXPECT_EQ(a->rows_reconstructed, b->rows_reconstructed) << query;
  }
}

TEST_F(ExecutorTest, ThreadedSvddFastPathMatchesSerial) {
  // Same contract through the SVDD constructor (compressed-domain
  // aggregates plus a reconstruction scan in one statement).
  const std::string query =
      "select sum(value), median(value) where row in 0:149 and col in 0:39";
  const QueryExecutor serial(model_, 1);
  const QueryExecutor threaded(model_, 8);
  const auto a = serial.Execute(query);
  const auto b = threaded.Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->values.size(), b->values.size());
  for (std::size_t i = 0; i < a->values.size(); ++i) {
    EXPECT_EQ(a->values[i], b->values[i]);
  }
}

TEST_F(ExecutorTest, CountMinMaxScansMatchTheFullAccumulator) {
  // A scan whose aggregates are all min, max or count keeps only those
  // per group; adding stddev to the plan keeps the moments too. Both
  // must give the same min, max and count, bit for bit, at any thread
  // count, and the mixed plan a stddev equal to a hand accumulation.
  const ScanOnlyStore scan_store(model_);
  for (const std::string where :
       {"row in 7", "row in 3:140 and col in 1:30",
        "row in 0:149 and col in 0:39 group by col"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const QueryExecutor executor(&scan_store, threads);
      const auto lean = executor.Execute(
          "select max(value), min(value), count(*) where " + where);
      const auto full = executor.Execute(
          "select max(value), min(value), count(*), stddev(value) where " +
          where);
      ASSERT_TRUE(lean.ok()) << where;
      ASSERT_TRUE(full.ok()) << where;
      ASSERT_EQ(lean->group_count(), full->group_count());
      for (std::size_t g = 0; g < lean->group_count(); ++g) {
        for (std::size_t a = 0; a < 3; ++a) {
          EXPECT_EQ(lean->ValueAt(g, a), full->ValueAt(g, a))
              << where << " threads=" << threads << " group " << g;
        }
      }
    }
  }
  // One row is one shard's region, accumulated in column order.
  const std::vector<std::size_t> row_ids = {7};
  std::vector<std::size_t> col_ids(model_->cols());
  for (std::size_t j = 0; j < col_ids.size(); ++j) col_ids[j] = j;
  Matrix region;
  ASSERT_TRUE(model_->ReconstructRegion(row_ids, col_ids, &region).ok());
  RunningStats reference;
  for (const double value : region.Row(0)) reference.Add(value);
  const QueryExecutor executor(model_);
  const auto mixed =
      executor.Execute("select max(value), stddev(value) where row in 7");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->strategy_summary,
            "max=row-reconstruction stddev=row-reconstruction");
  EXPECT_EQ(mixed->values[0], reference.max());
  EXPECT_EQ(mixed->values[1], reference.stddev());
  EXPECT_GT(mixed->values[1], 0.0);
}

TEST_F(ExecutorTest, BatchedScanMatchesPerRowReconstruction) {
  // The batched region scan must agree with a hand scan that calls
  // ReconstructRow per selected row (the pre-batching code path).
  const std::string query =
      "select sum(value) where row in 10:59 and col in 5:34";
  const ScanOnlyStore scan_store(model_);
  const QueryExecutor executor(&scan_store);
  const auto result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  RunningStats reference;
  std::vector<double> row(model_->cols());
  for (std::size_t i = 10; i <= 59; ++i) {
    model_->ReconstructRow(i, row);
    for (std::size_t j = 5; j <= 34; ++j) reference.Add(row[j]);
  }
  EXPECT_NEAR(result->values[0], reference.sum(),
              1e-9 * std::abs(reference.sum()));
}

}  // namespace
}  // namespace tsc
