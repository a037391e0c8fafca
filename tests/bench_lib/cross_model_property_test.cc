// Randomized cross-model property tests: every compressor in the library
// is exercised against the same invariants on randomized datasets. These
// are the contracts the query layer and benches rely on:
//   I1  ReconstructRow(i) == [ReconstructCell(i, j) for all j]
//   I2  CompressedBytes() respects the requested budget (where a budget
//       is requested)
//   I3  reconstruction error is finite and, at full budget, small
//   I4  serialization round-trips bit-exactly (where supported)
//   I5  aggregate queries through the store match aggregates over its
//       own full reconstruction

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/query.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "lib/ablation/robust_svd.h"
#include "lib/ablation/row_outlier.h"
#include "lib/ablation/zero_rows.h"
#include "lib/baselines/clustering.h"
#include "lib/baselines/dct.h"
#include "lib/baselines/wavelet.h"
#include "storage/row_source.h"
#include "util/rng.h"

namespace tsc {
namespace {

struct NamedStore {
  std::string name;
  std::unique_ptr<CompressedStore> store;
};

Matrix RandomDataset(std::uint64_t seed) {
  // Alternate between the two synthetic families.
  if (seed % 2 == 0) {
    PhoneDatasetConfig config;
    config.num_customers = 120 + (seed % 5) * 37;
    config.num_days = 24 + (seed % 3) * 11;
    config.spike_probability = 0.005;
    config.seed = seed;
    return GeneratePhoneDataset(config).values;
  }
  StockDatasetConfig config;
  config.num_stocks = 90 + (seed % 4) * 21;
  config.num_days = 32 + (seed % 2) * 17;
  config.seed = seed;
  return GenerateStockDataset(config).values;
}

std::vector<NamedStore> BuildAllModels(const Matrix& x) {
  std::vector<NamedStore> stores;
  constexpr double kSpace = 20.0;
  {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = kSpace;
    auto model = BuildSvddModel(&source, options);
    if (model.ok()) {
      stores.push_back(
          {"svdd", std::make_unique<SvddModel>(std::move(*model))});
    }
  }
  {
    MatrixRowSource source(&x);
    const SpaceBudget budget =
        SpaceBudget::FromPercent(x.rows(), x.cols(), kSpace);
    SvdBuildOptions options;
    options.k = budget.MaxK();
    auto model = BuildSvdModel(&source, options);
    if (model.ok()) {
      stores.push_back(
          {"svd", std::make_unique<SvdModel>(std::move(*model))});
    }
  }
  {
    MatrixRowSource source(&x);
    RobustSvdOptions options;
    options.k = 5;
    auto model = BuildRobustSvdModel(&source, options);
    if (model.ok()) {
      stores.push_back(
          {"robust_svd", std::make_unique<SvdModel>(std::move(*model))});
    }
  }
  {
    MatrixRowSource source(&x);
    auto model = BuildDctModel(&source, 6);
    if (model.ok()) {
      stores.push_back(
          {"dct", std::make_unique<DctModel>(std::move(*model))});
    }
  }
  {
    MatrixRowSource source(&x);
    auto model = BuildHaarModel(&source, 6);
    if (model.ok()) {
      stores.push_back(
          {"haar", std::make_unique<HaarModel>(std::move(*model))});
    }
  }
  {
    KMeansOptions options;
    options.num_clusters = 8;
    auto model = BuildKMeansClusterModel(x, options);
    if (model.ok()) {
      stores.push_back(
          {"kmeans", std::make_unique<ClusterModel>(std::move(*model))});
    }
  }
  {
    SvddBuildOptions options;
    options.space_percent = kSpace;
    auto model = BuildRowOutlierModel(x, options);
    if (model.ok()) {
      stores.push_back({"row_outlier", std::make_unique<RowOutlierModel>(
                                           std::move(*model))});
    }
  }
  {
    SvddBuildOptions options;
    options.space_percent = kSpace;
    auto model = BuildZeroRowFilteredSvdd(x, options);
    if (model.ok()) {
      stores.push_back({"zero_filter", std::make_unique<ZeroRowFilteredStore>(
                                           std::move(*model))});
    }
  }
  return stores;
}

class CrossModelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrossModelPropertyTest, SharedInvariantsHold) {
  const Matrix x = RandomDataset(GetParam());
  const std::vector<NamedStore> stores = BuildAllModels(x);
  ASSERT_GE(stores.size(), 6u);

  Rng rng(GetParam() * 31 + 1);
  for (const NamedStore& named : stores) {
    const CompressedStore& store = *named.store;
    SCOPED_TRACE(named.name);
    ASSERT_EQ(store.rows(), x.rows());
    ASSERT_EQ(store.cols(), x.cols());

    // I1: row == cells, on a few random rows.
    std::vector<double> row(store.cols());
    for (int probe = 0; probe < 3; ++probe) {
      const std::size_t i = rng.UniformUint64(store.rows());
      store.ReconstructRow(i, row);
      for (std::size_t j = 0; j < store.cols(); j += 7) {
        ASSERT_NEAR(row[j], store.ReconstructCell(i, j), 1e-9)
            << "row " << i << " col " << j;
      }
    }

    // I3: finite, sane error.
    const double rmspe = Rmspe(x, store);
    ASSERT_TRUE(std::isfinite(rmspe));
    ASSERT_LT(rmspe, 1.5);  // worse than predicting the mean = broken

    // I5: aggregates through the store == aggregates over its own
    // reconstruction.
    const RegionQuery query = MakeRandomRegionQuery(
        x.rows(), x.cols(), 0.15, AggregateFn::kSum, &rng);
    const double through_store = EvaluateAggregate(store, query);
    const Matrix recon = store.ReconstructAll();
    const double through_recon = EvaluateAggregate(recon, query);
    ASSERT_NEAR(through_store, through_recon,
                1e-8 * std::max(1.0, std::abs(through_recon)));
  }

  // I2 for the budgeted models.
  for (const NamedStore& named : stores) {
    if (named.name == "svdd" || named.name == "row_outlier" ||
        named.name == "zero_filter") {
      ASSERT_LE(named.store->SpacePercent(), 20.0 * 1.01) << named.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossModelPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace tsc
