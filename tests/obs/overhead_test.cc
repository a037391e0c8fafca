// Overhead guard for the instrument layer: a single-cell query through
// the executor must not get more than 5% slower with instruments enabled
// than with them runtime-disabled, inside the same binary. This covers
// the full instrumented path — executor stage histograms and counters,
// plus the delta-index instruments reached during reconstruction.
//
// Methodology: many adjacent pairs of short measurement segments, one
// segment per configuration with the order alternating pair by pair,
// scored by the median of the pairs' enabled/disabled ratios: a pair
// shares the machine's state of the moment, so drift and load from
// parallel tests cancel within it, and the median over many pairs
// ignores the pairs a burst of noise hit. Skips rather than flakes when
// the pair ratios spread too widely to support the comparison.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tsc {
namespace {

constexpr int kPairs = 48;

double MeasureSegmentMicros(const QueryExecutor& executor,
                            const std::vector<std::string>& queries) {
  Timer timer;
  for (const std::string& query : queries) {
    const auto result = executor.Execute(query);
    TSC_CHECK_OK(result.status());
  }
  return timer.ElapsedMillis() * 1000.0;
}

TEST(ObsOverheadTest, InstrumentsCostUnderFivePercentOnCellQueries) {
  PhoneDatasetConfig config;
  config.num_customers = 400;
  config.num_days = 64;
  config.seed = 11;
  const Matrix data = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.max_candidates = 8;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const QueryExecutor executor(&*model);

  std::vector<std::string> queries;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    const std::size_t row = rng.UniformUint64(data.rows());
    const std::size_t col = rng.UniformUint64(data.cols());
    queries.push_back("select sum(value) where row in " +
                      std::to_string(row) + ":" + std::to_string(row) +
                      " and col in " + std::to_string(col) + ":" +
                      std::to_string(col));
  }

  // Warm up allocators, code paths, and the instrument registry entries
  // before timing anything.
  (void)MeasureSegmentMicros(executor, queries);
  (void)MeasureSegmentMicros(executor, queries);

  const auto measure = [&](bool instruments) {
    obs::SetInstrumentsEnabled(instruments);
    const double micros = MeasureSegmentMicros(executor, queries);
    obs::SetInstrumentsEnabled(true);
    return micros;
  };

  std::vector<double> pair_ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double disabled = 0.0;
    double enabled = 0.0;
    if (pair % 2 == 0) {
      disabled = measure(false);
      enabled = measure(true);
    } else {
      enabled = measure(true);
      disabled = measure(false);
    }
    pair_ratios.push_back(enabled / disabled);
  }
  // Noise check on the statistic itself: when the middle half of the
  // pair ratios spans more than 10%, their median cannot resolve a 5%
  // budget.
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const std::size_t pairs = pair_ratios.size();
  const double ratio = pair_ratios[pairs / 2];
  const double spread = pair_ratios[pairs * 3 / 4] - pair_ratios[pairs / 4];
  if (spread > 0.1) {
    GTEST_SKIP() << "machine too noisy: pair ratios' interquartile range "
                 << spread << ", median " << ratio;
  }
  std::printf("single-cell query overhead: median pair ratio %.4f "
              "(interquartile range %.4f)\n",
              ratio, spread);
  EXPECT_LT(ratio, 1.05)
      << "instruments cost " << (ratio - 1.0) * 100.0
      << "% on the single-cell query path (budget: 5%)";
}

}  // namespace
}  // namespace tsc
