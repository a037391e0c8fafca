#include "lib/baselines/sampling.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "util/rng.h"

namespace tsc {
namespace {

Matrix UniformMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.UniformDouble(0, 10);
  return x;
}

TEST(SamplingTest, SampleSizeMatchesFraction) {
  const Matrix x = UniformMatrix(1000, 10, 1);
  const SamplingEstimator estimator(&x, 0.1, 7);
  EXPECT_EQ(estimator.sample_size(), 100u);
  EXPECT_EQ(estimator.SampleBytes(), 100u * 10u * 8u);
}

TEST(SamplingTest, FullSampleIsExactForAvg) {
  const Matrix x = UniformMatrix(50, 8, 2);
  const SamplingEstimator estimator(&x, 1.0, 7);
  RegionQuery q;
  q.fn = AggregateFn::kAvg;
  Rng rng(3);
  q.row_ids = rng.SampleWithoutReplacement(50, 20);
  q.col_ids = rng.SampleWithoutReplacement(8, 4);
  const auto estimate = estimator.EstimateAggregate(q);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, EvaluateAggregate(x, q), 1e-9);
}

TEST(SamplingTest, FullSampleIsExactForSum) {
  const Matrix x = UniformMatrix(40, 6, 3);
  const SamplingEstimator estimator(&x, 1.0, 7);
  RegionQuery q;
  q.fn = AggregateFn::kSum;
  q.row_ids = {1, 5, 9, 30};
  q.col_ids = {0, 3};
  const auto estimate = estimator.EstimateAggregate(q);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, EvaluateAggregate(x, q), 1e-9);
}

TEST(SamplingTest, PartialSampleApproximatesAverage) {
  const Matrix x = UniformMatrix(2000, 20, 4);
  const SamplingEstimator estimator(&x, 0.2, 9);
  RegionQuery q;
  q.fn = AggregateFn::kAvg;
  Rng rng(5);
  q.row_ids = rng.SampleWithoutReplacement(2000, 800);
  q.col_ids = rng.SampleWithoutReplacement(20, 10);
  const auto estimate = estimator.EstimateAggregate(q);
  ASSERT_TRUE(estimate.ok());
  const double exact = EvaluateAggregate(x, q);
  EXPECT_NEAR(*estimate, exact, 0.05 * std::abs(exact));
}

TEST(SamplingTest, FailsWhenNoSampledRowSelected) {
  const Matrix x = UniformMatrix(100, 5, 6);
  const SamplingEstimator estimator(&x, 0.02, 11);  // 2 sampled rows
  RegionQuery q;
  q.fn = AggregateFn::kAvg;
  // Select rows that are (almost certainly) not both sampled; retry a few
  // single-row queries until one misses.
  bool saw_failure = false;
  for (std::size_t r = 0; r < 100 && !saw_failure; ++r) {
    q.row_ids = {r};
    q.col_ids = {0};
    if (!estimator.EstimateAggregate(q).ok()) saw_failure = true;
  }
  EXPECT_TRUE(saw_failure);
}

TEST(SamplingTest, SumScalingUnbiasedOnHomogeneousData) {
  // All rows identical: scaled sum from any subsample is exact.
  Matrix x(100, 4);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = 2.0;
  }
  const SamplingEstimator estimator(&x, 0.25, 13);
  RegionQuery q;
  q.fn = AggregateFn::kSum;
  Rng rng(5);
  q.row_ids = rng.SampleWithoutReplacement(100, 60);
  q.col_ids = {0, 1, 2, 3};
  const auto estimate = estimator.EstimateAggregate(q);
  if (estimate.ok()) {
    EXPECT_NEAR(*estimate, EvaluateAggregate(x, q), 1e-9);
  }
}

TEST(SamplingTest, SkewPunishesUniformSampling) {
  // The paper's observation: with heavy-tailed rows, uniform sampling is
  // inaccurate for sums when big customers are missed. With a small
  // sample the relative error is routinely large.
  PhoneDatasetConfig config;
  config.num_customers = 1000;
  config.num_days = 20;
  config.zipf_skew = 1.4;
  const Matrix x = GeneratePhoneDataset(config).values;
  const SamplingEstimator estimator(&x, 0.05, 15);
  Rng rng(17);
  double worst = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    const RegionQuery q =
        MakeRandomRegionQuery(1000, 20, 0.1, AggregateFn::kSum, &rng);
    const auto estimate = estimator.EstimateAggregate(q);
    if (!estimate.ok()) continue;
    worst = std::max(worst, QueryError(EvaluateAggregate(x, q), *estimate));
  }
  EXPECT_GT(worst, 0.10);  // at least one query off by > 10%
}

}  // namespace
}  // namespace tsc
