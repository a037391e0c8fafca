#include "core/svdd_compressor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bloom_section_files.h"
#include "core/metrics.h"
#include "core/parallel_build.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "util/kahan.h"
#include "util/rng.h"

namespace tsc {
namespace {

/// A phone-style workload with spikes: the setting SVDD is designed for.
Matrix SpikyMatrix(std::size_t n = 200, std::size_t m = 40) {
  PhoneDatasetConfig config;
  config.num_customers = n;
  config.num_days = m;
  config.spike_probability = 0.01;
  config.spike_scale = 25.0;
  config.seed = 21;
  return GeneratePhoneDataset(config).values;
}

TEST(SvddCompressorTest, BuildUsesExactlyThreePasses) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(source.passes_started(), 3u);  // Figure 5's guarantee
}

TEST(SvddCompressorTest, RespectsSpaceBudget) {
  const Matrix x = SpikyMatrix();
  for (const double s : {5.0, 10.0, 20.0}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = s;
    const auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok());
    EXPECT_LE(model->SpacePercent(), s * 1.0001) << "s=" << s;
  }
}

TEST(SvddCompressorTest, BeatsPlainSvdAtEqualSpace) {
  const Matrix x = SpikyMatrix(300, 50);
  const SpaceBudget budget = SpaceBudget::FromPercent(300, 50, 15.0);

  MatrixRowSource svdd_source(&x);
  SvddBuildOptions options;
  options.space_percent = 15.0;
  const auto svdd = BuildSvddModel(&svdd_source, options);
  ASSERT_TRUE(svdd.ok());

  MatrixRowSource svd_source(&x);
  SvdBuildOptions svd_options;
  svd_options.k = budget.MaxK();
  const auto svd = BuildSvdModel(&svd_source, svd_options);
  ASSERT_TRUE(svd.ok());

  EXPECT_LE(Rmspe(x, *svdd), Rmspe(x, *svd) + 1e-12);
}

TEST(SvddCompressorTest, OutlierCellsReconstructExactly) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  // Every cell with a stored delta reconstructs with zero error
  // ("error-free reconstruction", Section 4.2).
  model->deltas()->ForEach([&](std::size_t i, std::size_t j, double) {
    EXPECT_NEAR(model->ReconstructCell(i, j), x(i, j),
                1e-9 * std::max(1.0, std::abs(x(i, j))));
  });
}

TEST(SvddCompressorTest, DeltasTargetWorstCells) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  // The smallest stored |delta| must be >= the largest plain-SVD error
  // among non-outlier cells (the bounded heaps keep the global top-gamma).
  double min_stored = 1e300;
  model->deltas()->ForEach([&](std::size_t, std::size_t, double delta) {
    min_stored = std::min(min_stored, std::abs(delta));
  });
  double max_unstored = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (model->deltas()->Find(i, j).has_value()) continue;
      const double err = std::abs(model->svd().ReconstructCell(i, j) - x(i, j));
      max_unstored = std::max(max_unstored, err);
    }
  }
  EXPECT_GE(min_stored, max_unstored - 1e-9);
}

TEST(SvddCompressorTest, QuantizedBuildsKeepTheErrorContract) {
  // The paper's contract under every U encoding: a delta cell reconstructs
  // x exactly, and no other cell is off by more than the smallest stored
  // |delta|. Quantized builds rank cells against a preview of the
  // quantized U prefix and derive each delta only once the factors are
  // quantized.
  PhoneDatasetConfig config;
  config.num_customers = 2000;
  config.num_days = 366;
  config.seed = 42;
  const Matrix x = GeneratePhoneDataset(config).values;
  for (const QuantScheme quant : {QuantScheme::kF64, QuantScheme::kF32,
                                  QuantScheme::kI16, QuantScheme::kI8}) {
    SCOPED_TRACE(QuantSchemeName(quant));
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 5.0;
    options.num_threads = 3;
    options.quant = quant;
    const auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->delta_count(), 0u);
    const auto tolerance = [](double value) {
      return 1e-9 * (1.0 + std::abs(value));
    };
    double min_delta = std::numeric_limits<double>::infinity();
    std::size_t inexact_deltas = 0;
    model->deltas()->ForEach([&](std::size_t i, std::size_t j, double delta) {
      min_delta = std::min(min_delta, std::abs(delta));
      if (std::abs(model->ReconstructCell(i, j) - x(i, j)) > tolerance(x(i, j))) {
        ++inexact_deltas;
      }
    });
    EXPECT_EQ(inexact_deltas, 0u);
    std::size_t over_bound = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        if (model->deltas()->Find(i, j).has_value()) {
          continue;
        }
        const double err = std::abs(model->ReconstructCell(i, j) - x(i, j));
        worst = std::max(worst, err);
        if (err > min_delta + tolerance(x(i, j))) ++over_bound;
      }
    }
    EXPECT_EQ(over_bound, 0u) << "worst non-delta error " << worst
                              << ", smallest |delta| " << min_delta;
  }
}

TEST(SvddCompressorTest, WorstCaseErrorFarBelowPlainSvd) {
  const Matrix x = SpikyMatrix(400, 60);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto svdd = BuildSvddModel(&source, options);
  ASSERT_TRUE(svdd.ok());

  const SpaceBudget budget = SpaceBudget::FromPercent(400, 60, 10.0);
  MatrixRowSource svd_source(&x);
  SvdBuildOptions svd_options;
  svd_options.k = budget.MaxK();
  const auto svd = BuildSvdModel(&svd_source, svd_options);
  ASSERT_TRUE(svd.ok());

  const ErrorReport svdd_report = EvaluateErrors(x, *svdd);
  const ErrorReport svd_report = EvaluateErrors(x, *svd);
  // Table 3's shape: SVDD's worst case is dramatically below plain SVD's.
  EXPECT_LT(svdd_report.max_abs_error, svd_report.max_abs_error * 0.5);
}

TEST(SvddCompressorTest, DiagnosticsConsistent) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(diag.k_opt, model->k());
  EXPECT_LE(diag.k_opt, diag.k_max);
  ASSERT_EQ(diag.candidate_ks.size(), diag.candidate_sse.size());
  ASSERT_EQ(diag.candidate_ks.size(), diag.candidate_residual_sse.size());
  // k_opt achieves the minimum residual among candidates.
  double best = 1e300;
  std::size_t best_k = 0;
  for (std::size_t i = 0; i < diag.candidate_ks.size(); ++i) {
    EXPECT_LE(diag.candidate_residual_sse[i], diag.candidate_sse[i] + 1e-9);
    if (diag.candidate_residual_sse[i] < best) {
      best = diag.candidate_residual_sse[i];
      best_k = diag.candidate_ks[i];
    }
  }
  EXPECT_EQ(best_k, diag.k_opt);
  // Plain-SVD SSE decreases in k (more components, less error).
  for (std::size_t i = 1; i < diag.candidate_sse.size(); ++i) {
    EXPECT_LE(diag.candidate_sse[i], diag.candidate_sse[i - 1] + 1e-6);
  }
}

TEST(SvddCompressorTest, ForcedKIsHonored) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.forced_k = 3;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->k(), 3u);
  EXPECT_EQ(diag.candidate_ks.size(), 1u);
}

TEST(SvddCompressorTest, MaxCandidatesBoundsEvaluation) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  options.max_candidates = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(diag.candidate_ks.size(), 5u);  // cap + forced k_max endpoint
  EXPECT_EQ(diag.candidate_ks.back(), diag.k_max);
  EXPECT_EQ(diag.candidate_ks.front(), 1u);
}

TEST(SvddCompressorTest, Pass2OutlierStateIndependentOfRowsAndAllowance) {
  // Pass 2 holds one error histogram per (shard, candidate) and retains
  // no cell, so its outlier state must not grow with N or with gamma_k.
  std::uint64_t state_bytes = 0;
  std::uint64_t largest_allowance = 0;
  const std::pair<std::size_t, double> runs[] = {
      {200, 10.0}, {800, 10.0}, {800, 25.0}};
  for (const auto& [rows, space] : runs) {
    const Matrix x = SpikyMatrix(rows, 40);
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.max_candidates = 2;  // candidates {1, k_max} in every run
    SvddBuildDiagnostics diag;
    const auto model = BuildSvddModel(&source, options, &diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_EQ(diag.candidate_ks.size(), 2u);
    EXPECT_GT(diag.candidate_delta_counts.front(), largest_allowance);
    largest_allowance = diag.candidate_delta_counts.front();
    EXPECT_GT(diag.pass2_outlier_state_bytes, 0u);
    if (state_bytes == 0) state_bytes = diag.pass2_outlier_state_bytes;
    EXPECT_EQ(diag.pass2_outlier_state_bytes, state_bytes);
  }
}

TEST(SvddCompressorTest, DiagnosticsReportPassesAndResolution) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  for (std::size_t pass = 0; pass < 3; ++pass) {
    EXPECT_GE(diag.pass_seconds[pass], 0.0) << "pass " << pass + 1;
    EXPECT_GT(diag.pass_end_rss_mb[pass], 0.0) << "pass " << pass + 1;
    EXPECT_GE(diag.peak_rss_mb + 1.0, diag.pass_end_rss_mb[pass]);
  }
  ASSERT_EQ(diag.candidate_resolved.size(), diag.candidate_ks.size());
  EXPECT_GE(diag.resolved_candidates, 1u);
  EXPECT_EQ(diag.resolved_candidates,
            static_cast<std::size_t>(std::count(diag.candidate_resolved.begin(),
                                                diag.candidate_resolved.end(),
                                                true)));
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(obs::MetricRegistry::Default()
                .GetGauge("build.resolved_candidates")
                .Value(),
            static_cast<double>(diag.resolved_candidates));
#endif
}

TEST(SvddCompressorTest, BloomFilterNeverChangesResults) {
  // Files written before the delta index carry a Bloom filter after the
  // deltas. Such a file loads, answers bit-identically to the current
  // layout, and re-saves to the current bytes.
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  const std::string current = ::testing::TempDir() + "/svdd_current.model";
  const std::string older = ::testing::TempDir() + "/svdd_bloom.model";
  ASSERT_TRUE(model->SaveToFile(current).ok());
  ASSERT_TRUE(WriteModelWithBloomSection(*model, older).ok());
  const auto a = SvddModel::LoadFromFile(current);
  const auto b = SvddModel::LoadFromFile(older);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->delta_count(), a->delta_count());
  const Matrix all_a = a->ReconstructAll();
  const Matrix all_b = b->ReconstructAll();
  EXPECT_EQ(all_a.data(), all_b.data());

  const std::string resaved = ::testing::TempDir() + "/svdd_resaved.model";
  ASSERT_TRUE(b->SaveToFile(resaved).ok());
  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_bytes(resaved), read_bytes(current));
  EXPECT_LT(read_bytes(current).size(), read_bytes(older).size());
}

TEST(SvddCompressorTest, TinyBudgetFails) {
  const Matrix x = SpikyMatrix(2000, 40);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 0.01;  // cannot fit even one component
  EXPECT_EQ(BuildSvddModel(&source, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SvddCompressorTest, HugeBudgetReconstructsExactly) {
  // With enough space for full rank, SVDD error must be ~zero. Note the
  // SVD representation at k = M costs (N*M + M + M^2) * b, slightly MORE
  // than the raw matrix, so "enough" is > 100%.
  const Matrix x = SpikyMatrix(100, 20);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 200.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(Rmspe(x, *model), 1e-7);
}

TEST(SvddCompressorTest, FailedSaveKeepsThePreviousModel) {
  const Matrix x = SpikyMatrix(100, 30);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 12.0;
  const auto first = BuildSvddModel(&source, options);
  ASSERT_TRUE(first.ok());
  options.space_percent = 20.0;
  const auto second = BuildSvddModel(&source, options);
  ASSERT_TRUE(second.ok());
  const std::string path = ::testing::TempDir() + "/svdd_atomic.model";
  ASSERT_TRUE(first->SaveToFile(path).ok());
  const auto read_bytes = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> before = read_bytes();

  // A directory squatting on the temp name makes the save fail before a
  // byte is written; the model at `path` must not be touched.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  ASSERT_TRUE(std::filesystem::create_directory(temp));
  EXPECT_FALSE(second->SaveToFile(path).ok());
  EXPECT_EQ(read_bytes(), before);
  EXPECT_TRUE(std::filesystem::is_directory(temp));
  std::filesystem::remove(temp);

  ASSERT_TRUE(second->SaveToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(temp));
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->k(), second->k());
  EXPECT_EQ(loaded->delta_count(), second->delta_count());
}

TEST(SvddCompressorTest, SerializeRoundTrip) {
  const Matrix x = SpikyMatrix(100, 30);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 12.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/svdd_model.bin";
  ASSERT_TRUE(model->SaveToFile(path).ok());
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->k(), model->k());
  EXPECT_EQ(loaded->delta_count(), model->delta_count());
  EXPECT_LT(
      MaxAbsDifference(loaded->ReconstructAll(), model->ReconstructAll()),
      1e-12);
}

TEST(SvddCompressorTest, CorruptedModelFileRejected) {
  const Matrix x = SpikyMatrix(60, 20);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/corrupt_model.bin";
  ASSERT_TRUE(model->SaveToFile(path).ok());

  // Flip one payload byte: the checksum trailer must catch it.
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(200, std::ios::beg);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(200, std::ios::beg);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);

  // Truncation is caught too.
  ASSERT_TRUE(model->SaveToFile(path).ok());
  {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(path, size - 3, ec);
    ASSERT_FALSE(ec);
  }
  EXPECT_FALSE(SvddModel::LoadFromFile(path).ok());
}

// ---------------------------------------------------------------------------
// Differential test against a brute-force oracle. The build never retains
// the worst cells in pass 2; it brackets each epsilon_k from error
// histograms and resolves only the candidates that can still win, in pass
// 3. The oracle does none of that: it scores every candidate from every
// cell's err2, sorted, with the gamma_k largest credited. Its arithmetic
// mirrors the build's term for term (same kernels, same summation order),
// so k_opt, the SSEs, every resolved epsilon_k and every delta must agree
// bit for bit.
// ---------------------------------------------------------------------------

struct OracleCell {
  double err2;
  std::uint64_t key;
  double err;
  double x;
};

struct OracleResult {
  std::vector<std::size_t> ks;
  std::vector<std::uint64_t> gamma;
  std::vector<double> sse;
  std::vector<double> epsilon;
  std::size_t k_opt = 0;
  std::vector<std::pair<std::uint64_t, double>> deltas;  // key, delta
};

/// Exact-engine builds with every k a candidate.
OracleResult RunOracle(const Matrix& x, const SvddBuildOptions& options) {
  const std::size_t n = x.rows();
  const std::size_t m = x.cols();
  OracleResult result;
  SpaceBudget budget = SpaceBudget::FromPercent(n, m, options.space_percent);
  budget.u_quant = options.quant;
  MatrixRowSource source(&x);
  const Matrix c = *AccumulateColumnSimilarity(&source);
  const EigenDecomposition eigen = *SymmetricEigen(c, options.solver);
  const double lambda_max = std::max(0.0, eigen.eigenvalues[0]);
  std::size_t rank = 0;
  while (rank < m && eigen.eigenvalues[rank] > 0.0 &&
         eigen.eigenvalues[rank] > kSvdRelativeTolerance * lambda_max) {
    ++rank;
  }
  const std::size_t k_max = options.forced_k > 0
                                ? options.forced_k
                                : std::min(budget.MaxK(), rank);
  if (options.forced_k > 0) {
    result.ks = {options.forced_k};
  } else {
    for (std::size_t k = 1; k <= k_max; ++k) result.ks.push_back(k);
  }
  const std::size_t num = result.ks.size();
  if (num == 0) return result;  // the build refuses such a budget
  for (const std::size_t k : result.ks) {
    result.gamma.push_back(std::min<std::uint64_t>(
        budget.DeltaCount(k, options.delta_bytes), n * m));
  }
  std::vector<double> sv(k_max);
  Matrix v(m, k_max);
  Matrix vt(k_max, m);
  for (std::size_t p = 0; p < k_max; ++p) {
    sv[p] = std::sqrt(eigen.eigenvalues[p]);
    for (std::size_t l = 0; l < m; ++l) {
      v(l, p) = eigen.eigenvectors(l, p);
      vt(p, l) = v(l, p);
    }
  }

  // Every cell's error at every candidate; SSE in the build's
  // (shard, lane) Kahan partials, folded shard by shard.
  std::vector<std::vector<OracleCell>> cells(num);
  std::vector<std::array<std::array<KahanSum, 4>, kBuildShards>> lanes(num);
  std::vector<double> projection(k_max);
  std::vector<double> recon(m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> row = x.Row(i);
    for (std::size_t p = 0; p < k_max; ++p) {
      projection[p] = kernels::Dot(row.data(), vt.Row(p).data(), m);
    }
    for (std::size_t ci = 0; ci < num; ++ci) {
      // Each candidate from scratch: the quantized U prefix the model
      // would serve at this k, snapped as one row.
      const std::size_t k = result.ks[ci];
      std::vector<double> coeffs(projection.begin(), projection.begin() + k);
      if (options.quant != QuantScheme::kF64) {
        for (std::size_t p = 0; p < k; ++p) coeffs[p] /= sv[p];
        SnapQuantRow(options.quant, coeffs);
        for (std::size_t p = 0; p < k; ++p) coeffs[p] *= sv[p];
      }
      std::fill(recon.begin(), recon.end(), 0.0);
      for (std::size_t p = 0; p < k; ++p) {
        kernels::Axpy(coeffs[p], vt.Row(p).data(), recon.data(), m);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const double err = row[j] - recon[j];
        const double e2 = err * err;
        lanes[ci][i % kBuildShards][j % 4].Add(e2);
        cells[ci].push_back({e2, DeltaIndex::CellKey(i, j, m), err, row[j]});
      }
    }
  }
  for (std::size_t ci = 0; ci < num; ++ci) {
    KahanSum total;
    for (const auto& shard : lanes[ci]) {
      for (const KahanSum& lane : shard) total.Merge(lane);
    }
    result.sse.push_back(total.value());
    std::sort(cells[ci].begin(), cells[ci].end(),
              [](const OracleCell& a, const OracleCell& b) {
                if (a.err2 != b.err2) return a.err2 > b.err2;
                return a.key < b.key;
              });
    cells[ci].resize(result.gamma[ci]);
    KahanSum credit;
    for (const OracleCell& cell : cells[ci]) credit.Add(cell.err2);
    result.epsilon.push_back(std::max(0.0, result.sse[ci] - credit.value()));
  }
  std::size_t best = 0;
  for (std::size_t ci = 1; ci < num; ++ci) {
    if (result.epsilon[ci] < result.epsilon[best]) best = ci;
  }
  result.k_opt = result.ks[best];

  // The build's assembly: U at k_opt, deltas re-derived against the
  // quantized reconstruction where U is quantized.
  Matrix u = *EmitUMatrix(&source, v, sv, result.k_opt);
  Matrix v_opt(m, result.k_opt);
  for (std::size_t l = 0; l < m; ++l) {
    for (std::size_t q = 0; q < result.k_opt; ++q) v_opt(l, q) = v(l, q);
  }
  SvdModel svd(std::move(u),
               std::vector<double>(sv.begin(), sv.begin() + result.k_opt),
               std::move(v_opt));
  std::vector<OracleCell>& kept = cells[best];
  if (options.quant != QuantScheme::kF64) {
    svd.ApplyQuantization(options.quant);
    for (OracleCell& cell : kept) {
      cell.err = cell.x - svd.ReconstructCell(cell.key / m, cell.key % m);
    }
  }
  for (const OracleCell& cell : kept) {
    result.deltas.emplace_back(cell.key, cell.err);
  }
  return result;
}

/// Builds `x` at `options` for 1 and 4 threads and checks each build
/// against the oracle. Returns the number of candidates resolved exactly.
std::size_t ExpectMatchesOracle(const Matrix& x, SvddBuildOptions options) {
  const OracleResult oracle = RunOracle(x, options);
  EXPECT_FALSE(oracle.ks.empty()) << "budget fits no component";
  if (oracle.ks.empty()) return 0;
  std::size_t resolved_count = 0;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    MatrixRowSource source(&x);
    SvddBuildDiagnostics diag;
    const auto model = BuildSvddModel(&source, options, &diag);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) return 0;
    EXPECT_EQ(source.passes_started(), 3u);
    EXPECT_EQ(diag.k_opt, oracle.k_opt);
    EXPECT_EQ(model->k(), oracle.k_opt);
    EXPECT_EQ(diag.candidate_ks, oracle.ks);
    EXPECT_EQ(diag.candidate_delta_counts, oracle.gamma);
    EXPECT_EQ(diag.candidate_sse, oracle.sse);
    EXPECT_EQ(diag.resolved_candidates,
              static_cast<std::size_t>(std::count(diag.candidate_resolved.begin(),
                                                  diag.candidate_resolved.end(),
                                                  true)));
    if (diag.candidate_ks != oracle.ks) return 0;
    const std::size_t opt = static_cast<std::size_t>(
        std::find(oracle.ks.begin(), oracle.ks.end(), oracle.k_opt) -
        oracle.ks.begin());
    EXPECT_TRUE(diag.candidate_resolved[opt]);
    for (std::size_t ci = 0; ci < oracle.ks.size(); ++ci) {
      const double reported = diag.candidate_residual_sse[ci];
      if (diag.candidate_resolved[ci]) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reported),
                  std::bit_cast<std::uint64_t>(oracle.epsilon[ci]))
            << "k=" << oracle.ks[ci] << " " << reported << " vs "
            << oracle.epsilon[ci];
      } else {
        // A bracket's lower bound: below the true epsilon_k, above k_opt's.
        EXPECT_LE(reported, oracle.epsilon[ci]) << "k=" << oracle.ks[ci];
        EXPECT_GT(reported, oracle.epsilon[opt]) << "k=" << oracle.ks[ci];
      }
    }
    EXPECT_EQ(model->delta_count(), oracle.deltas.size());
    for (const auto& [key, delta] : oracle.deltas) {
      const std::optional<double> stored =
          model->deltas()->Find(key / model->cols(), key % model->cols());
      EXPECT_TRUE(stored.has_value()) << "cell " << key;
      if (!stored.has_value()) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*stored),
                std::bit_cast<std::uint64_t>(delta))
          << "cell " << key;
    }
    resolved_count = diag.resolved_candidates;
  }
  return resolved_count;
}

TEST(SvddOracleTest, MatchesOracleAcrossQuantSchemes) {
  const Matrix x = SpikyMatrix(200, 40);
  for (const QuantScheme quant :
       {QuantScheme::kF64, QuantScheme::kF32, QuantScheme::kI8}) {
    SCOPED_TRACE(QuantSchemeName(quant));
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.quant = quant;
    ExpectMatchesOracle(x, options);
  }
}

TEST(SvddOracleTest, FloatValuesMatchOracle) {
  const Matrix x = SpikyMatrix(150, 30);
  SvddBuildOptions options;
  options.space_percent = 12.0;
  options.quant = QuantScheme::kF32;
  ExpectMatchesOracle(x, options);
}

TEST(SvddOracleTest, TiedErrorsBreakByCellKey) {
  // Every row three times over: each cell's err2 ties with two others,
  // so the allowance cuts through runs of equal errors.
  const Matrix base = SpikyMatrix(70, 30);
  Matrix x(base.rows() * 3, base.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::span<const double> src = base.Row(i % base.rows());
    std::copy(src.begin(), src.end(), x.Row(i).begin());
  }
  for (const QuantScheme quant : {QuantScheme::kF64, QuantScheme::kI8}) {
    SCOPED_TRACE(QuantSchemeName(quant));
    SvddBuildOptions options;
    options.space_percent = 20.0;
    options.quant = quant;
    ExpectMatchesOracle(x, options);
  }
}

TEST(SvddOracleTest, ZeroAllowanceCandidate) {
  // A budget that k_max's components fill to within one delta, so the
  // largest candidate can afford no outlier at all.
  const Matrix x = SpikyMatrix(200, 40);
  double space = 0.0;
  for (double s = 3.0; s < 30.0 && space == 0.0; s += 0.01) {
    const SpaceBudget budget = SpaceBudget::FromPercent(200, 40, s);
    const std::size_t k = budget.MaxK();
    if (k >= 3 && budget.DeltaCount(k, kDefaultDeltaBytes) == 0) space = s;
  }
  ASSERT_GT(space, 0.0);
  SvddBuildOptions options;
  options.space_percent = space;
  const OracleResult oracle = RunOracle(x, options);
  ASSERT_EQ(oracle.gamma.back(), 0u);
  ExpectMatchesOracle(x, options);
}

TEST(SvddOracleTest, AllowanceCoveringEveryCell) {
  // At 400% every candidate can store every cell: each epsilon_k is a
  // rounding residue near 0, the brackets overlap, and pass 3 resolves
  // several candidates at once.
  const Matrix x = SpikyMatrix(60, 12);
  SvddBuildOptions options;
  options.space_percent = 400.0;
  const OracleResult oracle = RunOracle(x, options);
  for (const std::uint64_t g : oracle.gamma) EXPECT_EQ(g, 60u * 12u);
  EXPECT_GE(ExpectMatchesOracle(x, options), 2u);
}

TEST(SvddOracleTest, ForcedKMatchesOracle) {
  const Matrix x = SpikyMatrix(200, 40);
  for (const QuantScheme quant : {QuantScheme::kF64, QuantScheme::kI8}) {
    SCOPED_TRACE(QuantSchemeName(quant));
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.forced_k = 3;
    options.quant = quant;
    EXPECT_EQ(ExpectMatchesOracle(x, options), 1u);
  }
}

TEST(SvddOracleTest, NearTieResolvesSeveralCandidates) {
  // Six nonzero rows among thousands of zero rows. A zero row projects
  // to exactly 0, so its cells' err2 is exactly 0 at every k, and every
  // allowance covers all 144 nonzero cells: each candidate's epsilon_k is
  // a rounding residue near 0. The brackets all reach down to 0 and
  // overlap, so pass 3 resolves several candidates together; their
  // cutoff is 0, so each collects every cell and compacts between chunks.
  Rng rng(29);
  Matrix x(3000, 24);
  for (std::size_t i = 0; i < 3000; i += 500) {
    for (std::size_t j = 0; j < 24; ++j) x(i, j) = rng.UniformDouble(1.0, 9.0);
  }
  SvddBuildOptions options;
  options.space_percent = 30.0;
  const OracleResult oracle = RunOracle(x, options);
  for (const std::uint64_t g : oracle.gamma) {
    EXPECT_GE(g, 144u);
    EXPECT_LT(2 * g, 3000u * 24u);
  }
  EXPECT_GE(ExpectMatchesOracle(x, options), 2u);
}

/// Parameterized sweep over space budgets: RMSPE decreases monotonically
/// with space, the Figure 6 property.
class SvddSpaceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SvddSpaceSweepTest, MoreSpaceNeverHurts) {
  // N >> M (the paper's Eq. 1 regime) so that even the smallest swept
  // budget fits one component: one PC costs (N + 1 + M) * b bytes,
  // ~1/M ~= 1.7% of the matrix when N dominates.
  static const Matrix x = SpikyMatrix(600, 60);
  const double s = GetParam();
  MatrixRowSource source_small(&x);
  MatrixRowSource source_large(&x);
  SvddBuildOptions small;
  small.space_percent = s;
  SvddBuildOptions large;
  large.space_percent = s * 2.0;
  const auto model_small = BuildSvddModel(&source_small, small);
  const auto model_large = BuildSvddModel(&source_large, large);
  ASSERT_TRUE(model_small.ok());
  ASSERT_TRUE(model_large.ok());
  EXPECT_LE(Rmspe(x, *model_large), Rmspe(x, *model_small) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SvddSpaceSweepTest,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0));

}  // namespace
}  // namespace tsc
