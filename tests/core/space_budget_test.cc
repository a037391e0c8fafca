#include "core/space_budget.h"

#include <gtest/gtest.h>

namespace tsc {
namespace {

TEST(SpaceBudgetTest, FromPercentComputesBytes) {
  const SpaceBudget b = SpaceBudget::FromPercent(1000, 100, 10.0);
  EXPECT_EQ(b.total_bytes, 1000u * 100u * 8u / 10u);
}

TEST(SpaceBudgetTest, SvdBytesMatchesEquationNine) {
  // Eq. 9 numerator: N*k + k + k*M values at b bytes.
  const SpaceBudget b = SpaceBudget::FromPercent(2000, 366, 10.0);
  for (const std::size_t k : {1u, 5u, 31u}) {
    EXPECT_EQ(b.SvdBytes(k), (2000u * k + k + k * 366u) * 8u);
  }
}

TEST(SpaceBudgetTest, MaxKFitsAndNextDoesNot) {
  const SpaceBudget b = SpaceBudget::FromPercent(2000, 366, 10.0);
  const std::size_t k_max = b.MaxK();
  EXPECT_GT(k_max, 0u);
  EXPECT_LE(b.SvdBytes(k_max), b.total_bytes);
  EXPECT_GT(b.SvdBytes(k_max + 1), b.total_bytes);
}

TEST(SpaceBudgetTest, MaxKApproximatesKOverM) {
  // The paper's s ~= k/M approximation: at 10% space, k_max ~= 0.1 * M.
  const SpaceBudget b = SpaceBudget::FromPercent(100000, 366, 10.0);
  const std::size_t k_max = b.MaxK();
  EXPECT_NEAR(static_cast<double>(k_max), 36.6, 2.0);
  EXPECT_NEAR(b.ApproximateSpaceFraction(k_max), 0.10, 0.01);
}

TEST(SpaceBudgetTest, MaxKClampedToM) {
  // Enormous budget: k cannot exceed the number of columns.
  const SpaceBudget b = SpaceBudget::FromPercent(100, 10, 10000.0);
  EXPECT_EQ(b.MaxK(), 10u);
}

TEST(SpaceBudgetTest, TinyBudgetGivesZeroK) {
  const SpaceBudget b = SpaceBudget::FromPercent(1000000, 366, 0.001);
  EXPECT_EQ(b.MaxK(), 0u);
}

TEST(SpaceBudgetTest, DeltaCountUsesLeftover) {
  SpaceBudget b;
  b.num_rows = 100;
  b.num_cols = 10;
  b.total_bytes = b.SvdBytes(2) + 10 * kDefaultDeltaBytes + 7;
  EXPECT_EQ(b.DeltaCount(2, kDefaultDeltaBytes), 10u);
  // All budget spent on the SVD: no deltas.
  EXPECT_EQ(b.DeltaCount(b.MaxK() + 10, kDefaultDeltaBytes), 0u);
}

TEST(SpaceBudgetTest, DeltaCountMonotoneDecreasingInK) {
  const SpaceBudget b = SpaceBudget::FromPercent(2000, 366, 10.0);
  std::uint64_t previous = b.DeltaCount(1, kDefaultDeltaBytes);
  for (std::size_t k = 2; k <= b.MaxK(); ++k) {
    const std::uint64_t count = b.DeltaCount(k, kDefaultDeltaBytes);
    EXPECT_LE(count, previous);
    previous = count;
  }
}

/// Parameterized consistency sweep across space percentages.
class BudgetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, SvdPlusDeltasNeverExceedsBudget) {
  const double s = GetParam();
  const SpaceBudget b = SpaceBudget::FromPercent(5000, 200, s);
  const std::size_t k_max = b.MaxK();
  for (std::size_t k = 1; k <= k_max; ++k) {
    const std::uint64_t used =
        b.SvdBytes(k) + b.DeltaCount(k, kDefaultDeltaBytes) * kDefaultDeltaBytes;
    EXPECT_LE(used, b.total_bytes) << "k=" << k << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Percents, BudgetSweepTest,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0, 20.0, 50.0));

}  // namespace
}  // namespace tsc
