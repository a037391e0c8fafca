#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "linalg/vector_ops.h"
#include "storage/row_source.h"
#include "util/logging.h"

namespace tsc {
namespace {

/// Full-rank model over a small matrix: compressed-domain answers must
/// equal exact answers.
SvdModel FullRankModel(const Matrix& x) {
  MatrixRowSource source(&x);
  SvdBuildOptions options;
  options.k = x.cols();
  auto model = BuildSvdModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

Matrix TestMatrix() {
  return Matrix::FromRows({{1, 2, 3, 4},
                           {10, 20, 30, 40},
                           {5, 5, 5, 5},
                           {0.5, 0.1, 0.2, 0.3}});
}

TEST(TopRowsBySumTest, MatchesExactOnFullRankModel) {
  const Matrix x = TestMatrix();
  const SvdModel model = FullRankModel(x);
  const auto top = TopRowsBySum(model, {0, 1, 2, 3}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].row, 1u);  // row sums: 10, 100, 20, 1.1
  EXPECT_NEAR(top[0].score, 100.0, 1e-8);
  EXPECT_EQ(top[1].row, 2u);
  EXPECT_NEAR(top[1].score, 20.0, 1e-8);
}

TEST(TopRowsBySumTest, ColumnSubset) {
  const Matrix x = TestMatrix();
  const SvdModel model = FullRankModel(x);
  // Columns {0}: values 1, 10, 5, 0.5.
  const auto top = TopRowsBySum(model, {0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].row, 1u);
  EXPECT_EQ(top[1].row, 2u);
  EXPECT_EQ(top[2].row, 0u);
}

TEST(TopRowsBySumTest, CountLargerThanNClamped) {
  const Matrix x = TestMatrix();
  const SvdModel model = FullRankModel(x);
  EXPECT_EQ(TopRowsBySum(model, {0}, 100).size(), 4u);
}

TEST(TopRowsBySumTest, SvddDeltasFoldedIn) {
  // The compressed-domain score must reflect the delta table. PatchCell
  // plants a guaranteed delta (a giant spike added to the RAW data can
  // instead become its own principal component and need no delta).
  PhoneDatasetConfig config;
  config.num_customers = 200;
  config.num_days = 30;
  config.spike_probability = 0.0;
  const Matrix x = GeneratePhoneDataset(config).values;

  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->PatchCell(7, 3, 1e6).ok());
  ASSERT_TRUE(model->deltas()->Find(7, 3).has_value());

  std::vector<std::size_t> all_cols(30);
  for (std::size_t j = 0; j < 30; ++j) all_cols[j] = j;
  const auto top = TopRowsBySum(*model, all_cols, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].row, 7u);
  // Score must match the model's own row reconstruction sum.
  std::vector<double> recon(30);
  model->ReconstructRow(7, recon);
  EXPECT_NEAR(top[0].score, Sum(recon), 1e-6 * Sum(recon));
  // Column subsets excluding the patched column must NOT see the delta.
  const auto without = TopRowsBySum(*model, {0, 1, 2}, 1);
  std::vector<std::size_t> cols012 = {0, 1, 2};
  RegionQuery q;
  q.fn = AggregateFn::kSum;
  q.row_ids = {without[0].row};
  q.col_ids = cols012;
  EXPECT_NEAR(without[0].score, EvaluateAggregate(*model, q),
              1e-6 * std::abs(without[0].score) + 1e-9);
}

TEST(NearestRowsTest, FindsDuplicateRow) {
  Matrix x = TestMatrix();
  const SvdModel model = FullRankModel(x);
  // Query = exact copy of row 2: distance ~0, rank 1.
  const std::vector<double> query = {5, 5, 5, 5};
  const auto result = NearestRows(model, query, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->neighbors.size(), 2u);
  EXPECT_EQ(result->neighbors[0].row, 2u);
  EXPECT_NEAR(result->neighbors[0].score, 0.0, 1e-7);
}

TEST(NearestRowsTest, DistancesMatchExactAtFullRank) {
  const Matrix x = TestMatrix();
  const SvdModel model = FullRankModel(x);
  const std::vector<double> query = {1, 1, 1, 1};
  const auto result = NearestRows(model, query, 4);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->neighbors.size(), 4u);
  for (const ScoredRow& nb : result->neighbors) {
    const double exact = EuclideanDistance(x.Row(nb.row), query);
    EXPECT_NEAR(nb.score, exact, 1e-7) << "row " << nb.row;
  }
  // Ascending order.
  for (std::size_t i = 1; i < result->neighbors.size(); ++i) {
    EXPECT_LE(result->neighbors[i - 1].score, result->neighbors[i].score);
  }
}

TEST(NearestRowsTest, ProjectedDistanceLowerBoundsTrueDistance) {
  // The GEMINI guarantee: with a truncated model, projected distance
  // <= true distance for every pair.
  const Dataset d = GenerateLowRankDataset(40, 12, 6, 3, /*noise=*/0.4);
  MatrixRowSource source(&d.values);
  SvdBuildOptions options;
  options.k = 3;  // heavy truncation
  auto model = BuildSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      const double projected = ProjectedDistance(*model, a, b);
      const double exact = EuclideanDistance(d.values.Row(a), d.values.Row(b));
      EXPECT_LE(projected, exact + 1e-8) << a << "," << b;
    }
  }
}

TEST(NearestRowsTest, WrongQueryLengthRejected) {
  const SvdModel model = FullRankModel(TestMatrix());
  const std::vector<double> bad = {1, 2};
  EXPECT_FALSE(NearestRows(model, bad, 1).ok());
}

TEST(NearestRowsToTest, ExcludesSelf) {
  const SvdModel model = FullRankModel(TestMatrix());
  const auto result = NearestRowsTo(model, 0, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 3u);  // N-1 others
  for (const ScoredRow& nb : result->neighbors) {
    EXPECT_NE(nb.row, 0u);
  }
}

TEST(NearestRowsToTest, OutOfRangeRejected) {
  const SvdModel model = FullRankModel(TestMatrix());
  EXPECT_FALSE(NearestRowsTo(model, 99, 1).ok());
}

TEST(NearestRowsToTest, SimilarCustomersCluster) {
  // Rows 0 and 1 are scalar multiples in TestMatrix... use a dataset
  // where two rows are near-copies instead.
  Matrix x(6, 8);
  Rng rng(5);
  for (auto& v : x.data()) v = rng.Gaussian();
  for (std::size_t j = 0; j < 8; ++j) x(5, j) = x(2, j) + 0.01;
  const SvdModel model = FullRankModel(x);
  const auto result = NearestRowsTo(model, 5, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors[0].row, 2u);
}

}  // namespace
}  // namespace tsc
