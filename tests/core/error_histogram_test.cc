#include "core/error_histogram.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/kahan.h"
#include "util/rng.h"

namespace tsc {
namespace {

constexpr std::size_t kParts = 16;

/// Values spread over many octaves, with repeats, as cell errors are.
std::vector<double> SpreadValues(Rng& rng, std::size_t count) {
  std::vector<double> values(count);
  for (double& v : values) {
    const double mantissa = rng.UniformDouble(0.0, 1.0);
    v = mantissa * std::pow(2.0, rng.UniformDouble(-30.0, 30.0));
    if (rng.UniformDouble(0.0, 1.0) < 0.1) v = 1.0;  // ties
  }
  return values;
}

/// What the build's exact path computes: the gamma largest values sorted
/// descending, credited by a compensated sum, subtracted from sse and
/// clamped at 0.
double ExactResidual(std::vector<double> values, std::uint64_t gamma,
                     double sse) {
  std::sort(values.begin(), values.end(), std::greater<double>());
  KahanSum credit;
  for (std::uint64_t i = 0; i < gamma; ++i) credit.Add(values[i]);
  return std::max(0.0, sse - credit.value());
}

struct Split {
  std::vector<ErrorHistogram> parts;
  std::array<const ErrorHistogram*, kParts> view;
};

Split SplitInto(const std::vector<double>& values, std::uint32_t base) {
  Split split{std::vector<ErrorHistogram>(kParts, ErrorHistogram(base)), {}};
  for (std::size_t i = 0; i < values.size(); ++i) {
    split.parts[i % kParts].Add(values[i]);
  }
  for (std::size_t p = 0; p < kParts; ++p) split.view[p] = &split.parts[p];
  return split;
}

TEST(ErrorHistogramTest, BinsAreOrderedValueIntervals) {
  Rng rng(3);
  const ErrorHistogram histogram(ErrorHistogram::BaseFor(1e9));
  std::vector<double> values = SpreadValues(rng, 5000);
  values.push_back(0.0);
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(1e300);
  values.push_back(std::numeric_limits<double>::infinity());
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = values[i];
    const std::size_t bin = histogram.BinOf(x);
    EXPECT_LE(histogram.LowerEdge(bin), x) << x;
    if (bin + 1 < ErrorHistogram::kBins) {
      EXPECT_LT(x, histogram.UpperEdge(bin));
    }
    EXPECT_EQ(histogram.BinOf(histogram.LowerEdge(bin)), bin);
    if (i > 0) {
      EXPECT_LE(histogram.BinOf(values[i - 1]), bin);
    }
  }
  EXPECT_EQ(histogram.BinOf(0.0), 0u);
  EXPECT_EQ(histogram.LowerEdge(0), 0.0);
  EXPECT_EQ(histogram.BinOf(std::numeric_limits<double>::infinity()),
            ErrorHistogram::kBins - 1);
  EXPECT_TRUE(std::isinf(histogram.UpperEdge(ErrorHistogram::kBins - 1)));
  // 16 bins per octave.
  EXPECT_EQ(histogram.BinOf(2.0) - histogram.BinOf(1.0), 16u);
}

TEST(ErrorHistogramTest, CutoffBinLeavesGammaValuesAtOrAbove) {
  Rng rng(5);
  const std::vector<double> values = SpreadValues(rng, 4000);
  const Split split = SplitInto(values, ErrorHistogram::BaseFor(1e9));
  for (const std::uint64_t gamma : {1ull, 7ull, 400ull, 3999ull, 4000ull}) {
    const std::size_t cut = CutoffBin(split.view, gamma);
    const double edge = split.parts[0].LowerEdge(cut);
    const auto at_or_above = static_cast<std::uint64_t>(
        std::count_if(values.begin(), values.end(),
                      [&](double v) { return v >= edge; }));
    EXPECT_GE(at_or_above, gamma);
    if (cut + 1 < ErrorHistogram::kBins) {
      const double next = split.parts[0].UpperEdge(cut);
      const auto above = static_cast<std::uint64_t>(
          std::count_if(values.begin(), values.end(),
                        [&](double v) { return v >= next; }));
      EXPECT_LT(above, gamma);
    }
    const ResidualBracket bracket = BracketResidual(split.view, gamma, 0.0);
    EXPECT_EQ(bracket.cutoff, edge);
    EXPECT_EQ(bracket.at_or_above, at_or_above);
  }
}

TEST(ErrorHistogramTest, ZeroAllowanceIsExact) {
  Rng rng(7);
  const Split split =
      SplitInto(SpreadValues(rng, 100), ErrorHistogram::BaseFor(1e9));
  const ResidualBracket bracket = BracketResidual(split.view, 0, 123.5);
  EXPECT_EQ(bracket.lo, 123.5);
  EXPECT_EQ(bracket.hi, 123.5);
  EXPECT_EQ(bracket.at_or_above, 0u);
  EXPECT_TRUE(std::isinf(bracket.cutoff));
}

// The bracket must contain the residual the exact path computes, bit for
// bit. Without the rounding margin it does not: when gamma covers whole
// bins the raw bracket is a single point, and the histogram's merged sums
// and the exact path's sorted sum round differently in the last bits — most
// visibly when gamma covers every value, where epsilon is a rounding
// residue around 0.
TEST(ErrorHistogramTest, BracketContainsTheExactResidual) {
  Rng rng(11);
  std::size_t point_brackets = 0;
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t count = 50 + trial * 7;
    const std::vector<double> values = SpreadValues(rng, count);
    // SSE summed in stream order, the way pass 2 sums it.
    KahanSum total;
    for (const double v : values) total.Add(v);
    const double extra = trial % 3 == 0 ? 0.0 : rng.UniformDouble(0.0, 1e3);
    const double sse = total.value() + extra;
    const Split split = SplitInto(values, ErrorHistogram::BaseFor(1e12));
    for (const std::uint64_t gamma :
         {std::uint64_t{1}, std::uint64_t{count / 10}, std::uint64_t{count / 2},
          std::uint64_t{count - 1}, std::uint64_t{count}}) {
      if (gamma == 0) continue;
      const ResidualBracket bracket = BracketResidual(split.view, gamma, sse);
      const double exact = ExactResidual(values, gamma, sse);
      EXPECT_LE(bracket.lo, exact) << "trial " << trial << " gamma " << gamma;
      EXPECT_GE(bracket.hi, exact) << "trial " << trial << " gamma " << gamma;
      if (bracket.at_or_above == gamma) {
        // Whole bins: the bracket is a point widened by the margin alone.
        ++point_brackets;
        EXPECT_LE(bracket.hi - bracket.lo, 1e-12 * (sse + 1.0));
      }
    }
  }
  EXPECT_GT(point_brackets, 100u);
}

TEST(ErrorHistogramTest, WindowClampsBothEnds) {
  const ErrorHistogram histogram(ErrorHistogram::BaseFor(1.0));
  // Far below the window: bin 0, whose lower edge is 0.
  EXPECT_EQ(histogram.BinOf(1e-60), 0u);
  // Above the window: the last bin, whose upper edge is +inf.
  EXPECT_EQ(histogram.BinOf(1e60), ErrorHistogram::kBins - 1);
  // The anchor itself sits inside, 8 octaves below the top.
  EXPECT_EQ(ErrorHistogram::kBins - 1 - histogram.BinOf(1.0), 8u * 16u);
  // Anchors at the ends of the double range still give valid windows.
  EXPECT_EQ(ErrorHistogram::BaseFor(0.0), 0u);
  const ErrorHistogram huge(ErrorHistogram::BaseFor(1e308));
  EXPECT_TRUE(std::isfinite(huge.LowerEdge(ErrorHistogram::kBins - 1)));
}

}  // namespace
}  // namespace tsc
