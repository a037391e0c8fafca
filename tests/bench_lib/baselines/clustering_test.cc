#include "lib/baselines/clustering.h"

#include <set>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "util/rng.h"

namespace tsc {
namespace {

/// Three well-separated blobs of rows.
Matrix ThreeBlobs(std::size_t per_blob, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(per_blob * 3, 4);
  const double centers[3][4] = {
      {0, 0, 0, 0}, {100, 100, 100, 100}, {-100, 50, -100, 50}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        x(b * per_blob + i, j) = centers[b][j] + rng.Gaussian(0.0, 1.0);
      }
    }
  }
  return x;
}

TEST(HierarchicalClusteringTest, RecoversSeparatedBlobs) {
  const Matrix x = ThreeBlobs(10, 1);
  const auto model = BuildHierarchicalClusterModel(x, 3);
  ASSERT_TRUE(model.ok());
  // All rows of a blob share an assignment; blobs get distinct clusters.
  std::set<std::uint32_t> blob_clusters;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::uint32_t c = model->assignment()[b * 10];
    blob_clusters.insert(c);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(model->assignment()[b * 10 + i], c);
    }
  }
  EXPECT_EQ(blob_clusters.size(), 3u);
}

TEST(HierarchicalClusteringTest, CentroidsNearBlobCenters) {
  const Matrix x = ThreeBlobs(20, 2);
  const auto model = BuildHierarchicalClusterModel(x, 3);
  ASSERT_TRUE(model.ok());
  const ErrorReport report = EvaluateErrors(x, *model);
  // Within-blob noise is sigma=1, so reconstruction error is tiny
  // relative to the data spread (~100).
  EXPECT_LT(report.rmspe, 0.05);
}

TEST(HierarchicalClusteringTest, OneClusterIsGlobalMean) {
  const Matrix x = Matrix::FromRows({{0, 0}, {2, 2}, {4, 4}});
  const auto model = BuildHierarchicalClusterModel(x, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_clusters(), 1u);
  EXPECT_NEAR(model->ReconstructCell(0, 0), 2.0, 1e-12);
}

TEST(HierarchicalClusteringTest, NClustersIsExact) {
  const Matrix x = ThreeBlobs(4, 3);
  const auto model = BuildHierarchicalClusterModel(x, x.rows());
  ASSERT_TRUE(model.ok());
  EXPECT_LT(MaxAbsDifference(x, model->ReconstructAll()), 1e-12);
}

TEST(HierarchicalClusteringTest, InvalidArgsRejected) {
  const Matrix x = ThreeBlobs(4, 4);
  EXPECT_FALSE(BuildHierarchicalClusterModel(x, 0).ok());
  EXPECT_FALSE(BuildHierarchicalClusterModel(x, x.rows() + 1).ok());
  EXPECT_FALSE(BuildHierarchicalClusterModel(Matrix(0, 0), 1).ok());
}

TEST(HierarchicalClusteringTest, AllLinkagesRecoverBlobs) {
  const Matrix x = ThreeBlobs(8, 5);
  for (const Linkage linkage :
       {Linkage::kComplete, Linkage::kSingle, Linkage::kAverage}) {
    const auto model = BuildHierarchicalClusterModel(x, 3, linkage);
    ASSERT_TRUE(model.ok());
    const ErrorReport report = EvaluateErrors(x, *model);
    EXPECT_LT(report.rmspe, 0.05);
  }
}

TEST(ClusterModelTest, SpaceAccountingMatchesPaperFormula) {
  const Matrix x = ThreeBlobs(10, 6);
  const auto model = BuildHierarchicalClusterModel(x, 3);
  ASSERT_TRUE(model.ok());
  // (b*k*M) + (N*b) with b=8, k=3, M=4, N=30.
  EXPECT_EQ(model->CompressedBytes(), 8u * 3u * 4u + 30u * 8u);
}

TEST(ClusterModelTest, RowMatchesCentroid) {
  const Matrix x = ThreeBlobs(5, 7);
  const auto model = BuildHierarchicalClusterModel(x, 3);
  ASSERT_TRUE(model.ok());
  std::vector<double> row(4);
  model->ReconstructRow(7, row);
  const std::uint32_t c = model->assignment()[7];
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(row[j], model->centroids()(c, j));
  }
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const Matrix x = ThreeBlobs(15, 8);
  KMeansOptions options;
  options.num_clusters = 3;
  const auto model = BuildKMeansClusterModel(x, options);
  ASSERT_TRUE(model.ok());
  const ErrorReport report = EvaluateErrors(x, *model);
  EXPECT_LT(report.rmspe, 0.05);
  EXPECT_EQ(model->MethodName(), "kmeans");
}

TEST(KMeansTest, DeterministicInSeed) {
  const Matrix x = ThreeBlobs(10, 9);
  KMeansOptions options;
  options.num_clusters = 3;
  const auto a = BuildKMeansClusterModel(x, options);
  const auto b = BuildKMeansClusterModel(x, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment(), b->assignment());
}

TEST(KMeansTest, InvalidArgsRejected) {
  const Matrix x = ThreeBlobs(3, 10);
  KMeansOptions options;
  options.num_clusters = 0;
  EXPECT_FALSE(BuildKMeansClusterModel(x, options).ok());
  options.num_clusters = x.rows() + 1;
  EXPECT_FALSE(BuildKMeansClusterModel(x, options).ok());
}

TEST(ClustersForBudgetTest, InvertsSpaceFormula) {
  // budget = b*k*M + N*b  ->  k = (budget - N*b) / (b*M)
  EXPECT_EQ(ClustersForBudget(100, 10, 100 * 8 + 5 * 8 * 10), 5u);
  // Budget below the reference cost: nothing fits.
  EXPECT_EQ(ClustersForBudget(100, 10, 100), 0u);
  // Clamped to N.
  EXPECT_EQ(ClustersForBudget(4, 10, 1000000), 4u);
}

/// Parameterized: reconstruction error decreases as the cluster count
/// grows (the knob the Figure 6 sweep turns).
class ClusterCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterCountSweep, MoreClustersNotWorse) {
  static const Matrix x = ThreeBlobs(12, 11);
  const std::size_t k = GetParam();
  const auto coarse = BuildHierarchicalClusterModel(x, k);
  const auto fine = BuildHierarchicalClusterModel(x, k * 2);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_LE(EvaluateErrors(x, *fine).rmspe,
            EvaluateErrors(x, *coarse).rmspe + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, ClusterCountSweep,
                         ::testing::Values(1, 2, 3, 6, 12));

}  // namespace
}  // namespace tsc
