#include "lib/ablation/robust_svd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "data/generators.h"
#include "storage/row_source.h"
#include "util/rng.h"

namespace tsc {
namespace {

/// Clean low-rank data plus a few gigantic spikes: the adversarial case
/// for a least-squares subspace fit.
struct SpikedData {
  Matrix clean;
  Matrix spiked;
  std::vector<std::pair<std::size_t, std::size_t>> spike_cells;
};

SpikedData MakeSpikedData(std::size_t n = 120, std::size_t m = 24,
                          std::size_t rank = 3, std::size_t spikes = 6) {
  SpikedData data;
  data.clean = GenerateLowRankDataset(n, m, rank, 11, /*noise=*/0.05).values;
  data.spiked = data.clean;
  Rng rng(13);
  const double magnitude = 50.0 * MatrixStddev(data.clean);
  for (std::size_t s = 0; s < spikes; ++s) {
    const std::size_t i = rng.UniformUint64(n);
    const std::size_t j = rng.UniformUint64(m);
    data.spiked(i, j) += magnitude;
    data.spike_cells.emplace_back(i, j);
  }
  return data;
}

/// Frobenius error restricted to non-spiked cells.
double CleanCellError(const SpikedData& data, const CompressedStore& store) {
  double sse = 0.0;
  std::vector<double> recon(data.clean.cols());
  for (std::size_t i = 0; i < data.clean.rows(); ++i) {
    store.ReconstructRow(i, recon);
    for (std::size_t j = 0; j < data.clean.cols(); ++j) {
      bool is_spike = false;
      for (const auto& [si, sj] : data.spike_cells) {
        if (si == i && sj == j) is_spike = true;
      }
      if (is_spike) continue;
      const double err = recon[j] - data.clean(i, j);
      sse += err * err;
    }
  }
  return std::sqrt(sse);
}

TEST(RobustSvdTest, MatchesPlainSvdOnCleanData) {
  const Dataset d = GenerateLowRankDataset(60, 12, 4, 2, /*noise=*/0.1);
  MatrixRowSource robust_source(&d.values);
  RobustSvdOptions robust_options;
  robust_options.k = 4;
  const auto robust = BuildRobustSvdModel(&robust_source, robust_options);
  ASSERT_TRUE(robust.ok());
  MatrixRowSource plain_source(&d.values);
  SvdBuildOptions plain_options;
  plain_options.k = 4;
  const auto plain = BuildSvdModel(&plain_source, plain_options);
  ASSERT_TRUE(plain.ok());
  // Gaussian noise trims almost nothing; the fits agree closely.
  EXPECT_NEAR(Rmspe(d.values, *robust), Rmspe(d.values, *plain), 0.02);
}

TEST(RobustSvdTest, SpikesDamagePlainSvdMoreThanRobust) {
  const SpikedData data = MakeSpikedData();
  MatrixRowSource robust_source(&data.spiked);
  RobustSvdOptions options;
  options.k = 3;
  options.iterations = 3;
  const auto robust = BuildRobustSvdModel(&robust_source, options);
  ASSERT_TRUE(robust.ok());
  MatrixRowSource plain_source(&data.spiked);
  SvdBuildOptions plain_options;
  plain_options.k = 3;
  const auto plain = BuildSvdModel(&plain_source, plain_options);
  ASSERT_TRUE(plain.ok());

  // On the uncontaminated cells, the robust subspace is much closer to
  // the truth than the least-squares one that chased the spikes.
  const double robust_err = CleanCellError(data, *robust);
  const double plain_err = CleanCellError(data, *plain);
  EXPECT_LT(robust_err, plain_err * 0.8);
}

TEST(RobustSvdTest, DiagnosticsReportTrimming) {
  const SpikedData data = MakeSpikedData();
  MatrixRowSource source(&data.spiked);
  RobustSvdOptions options;
  options.k = 3;
  options.iterations = 2;
  RobustSvdDiagnostics diag;
  const auto model = BuildRobustSvdModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  ASSERT_GE(diag.trimmed_cells.size(), 1u);
  EXPECT_GE(diag.trimmed_cells[0], data.spike_cells.size());
  ASSERT_EQ(diag.residual_stddev.size(), diag.trimmed_cells.size());
  // Residual scale shrinks (or holds) as trimming removes the spikes.
  for (std::size_t r = 1; r < diag.residual_stddev.size(); ++r) {
    EXPECT_LE(diag.residual_stddev[r], diag.residual_stddev[r - 1] * 1.05);
  }
  EXPECT_EQ(diag.passes, source.passes_started());
}

TEST(RobustSvdTest, PassCountIsBounded) {
  const SpikedData data = MakeSpikedData();
  MatrixRowSource source(&data.spiked);
  RobustSvdOptions options;
  options.k = 3;
  options.iterations = 2;
  const auto model = BuildRobustSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  // 1 (initial C) + 2 per round * iterations + 2 (final sigma + U).
  EXPECT_LE(source.passes_started(), 1u + 2u * options.iterations + 2u);
}

TEST(RobustSvdTest, RobustStillCannotRepresentSpikes) {
  // The complementarity with SVDD: robust SVD protects the subspace but
  // the spike cells themselves remain badly reconstructed.
  const SpikedData data = MakeSpikedData();
  MatrixRowSource source(&data.spiked);
  RobustSvdOptions options;
  options.k = 3;
  const auto model = BuildRobustSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  double worst_spike_err = 0.0;
  for (const auto& [i, j] : data.spike_cells) {
    worst_spike_err = std::max(
        worst_spike_err,
        std::abs(model->ReconstructCell(i, j) - data.spiked(i, j)));
  }
  EXPECT_GT(worst_spike_err, 10.0 * MatrixStddev(data.clean));
}

TEST(RobustSvdTest, InvalidArgsRejected) {
  const Matrix empty(0, 0);
  MatrixRowSource empty_source(&empty);
  RobustSvdOptions options;
  EXPECT_FALSE(BuildRobustSvdModel(&empty_source, options).ok());

  const Matrix x = Matrix::FromRows({{1, 2}, {3, 4}});
  MatrixRowSource source(&x);
  options.k = 0;
  EXPECT_FALSE(BuildRobustSvdModel(&source, options).ok());
}

TEST(RobustSvdTest, ZeroIterationsEqualsPlainSvdSubspace) {
  const Dataset d = GenerateLowRankDataset(40, 10, 3, 9, /*noise=*/0.2);
  MatrixRowSource robust_source(&d.values);
  RobustSvdOptions options;
  options.k = 3;
  options.iterations = 0;
  options.trim_sigma = 1e9;  // nothing trimmed in the final U pass either
  const auto robust = BuildRobustSvdModel(&robust_source, options);
  ASSERT_TRUE(robust.ok());
  MatrixRowSource plain_source(&d.values);
  SvdBuildOptions plain_options;
  plain_options.k = 3;
  const auto plain = BuildSvdModel(&plain_source, plain_options);
  ASSERT_TRUE(plain.ok());
  EXPECT_LT(MaxAbsDifference(robust->ReconstructAll(),
                             plain->ReconstructAll()),
            1e-8);
}

}  // namespace
}  // namespace tsc
