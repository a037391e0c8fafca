// The parallel build's contract is stronger than "same model up to
// floating-point noise": sharded accumulation with ordered reduction
// must make --threads=1 and --threads=N produce bitwise-identical
// serialized models. These tests enforce that, plus the Kahan-summation
// invariant (non-negative candidate residuals) and SVDD round-trips
// in the current file layout and in the older one with a Bloom filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bloom_section_files.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

Matrix MakePhoneMatrix(std::size_t rows) {
  PhoneDatasetConfig config;
  config.num_customers = rows;
  config.num_days = 60;
  config.seed = 17;
  return GeneratePhoneDataset(config).values;
}

TEST(ParallelDeterminismTest, SvdBitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = MakePhoneMatrix(200);
  const std::string serial_path = ::testing::TempDir() + "/svd_t1.model";
  const std::string parallel_path = ::testing::TempDir() + "/svd_t8.model";

  {
    MatrixRowSource source(&x);
    SvdBuildOptions options;
    options.k = 6;
    options.num_threads = 1;
    const auto model = BuildSvdModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(serial_path).ok());
  }
  {
    MatrixRowSource source(&x);
    SvdBuildOptions options;
    options.k = 6;
    options.num_threads = 8;
    const auto model = BuildSvdModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(parallel_path).ok());
  }

  const auto serial_bytes = ReadFileBytes(serial_path);
  const auto parallel_bytes = ReadFileBytes(parallel_path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST(ParallelDeterminismTest, SvddBitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = MakePhoneMatrix(300);
  const std::string serial_path = ::testing::TempDir() + "/svdd_t1.model";
  const std::string parallel_path = ::testing::TempDir() + "/svdd_t8.model";

  SvddBuildDiagnostics serial_diag;
  SvddBuildDiagnostics parallel_diag;
  {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.num_threads = 1;
    const auto model = BuildSvddModel(&source, options, &serial_diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(serial_path).ok());
  }
  {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.num_threads = 8;
    const auto model = BuildSvddModel(&source, options, &parallel_diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(parallel_path).ok());
  }

  const auto serial_bytes = ReadFileBytes(serial_path);
  const auto parallel_bytes = ReadFileBytes(parallel_path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);

  // The diagnostics (k choice, per-candidate errors) must agree too.
  EXPECT_EQ(serial_diag.k_opt, parallel_diag.k_opt);
  EXPECT_EQ(serial_diag.delta_count, parallel_diag.delta_count);
  EXPECT_EQ(serial_diag.candidate_sse, parallel_diag.candidate_sse);
  EXPECT_EQ(serial_diag.candidate_residual_sse,
            parallel_diag.candidate_residual_sse);
}

TEST(ParallelDeterminismTest, CandidateResidualsNonNegative) {
  // epsilon_k = SSE_k - (credit of the gamma_k worst cells) is a
  // difference of large sums; naive accumulation can drive it slightly
  // negative. Compensated (Kahan) summation plus the final clamp must
  // keep every candidate residual >= 0.
  const Matrix x = MakePhoneMatrix(250);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 15.0;
  options.num_threads = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_FALSE(diag.candidate_residual_sse.empty());
  for (std::size_t ci = 0; ci < diag.candidate_residual_sse.size(); ++ci) {
    EXPECT_GE(diag.candidate_residual_sse[ci], 0.0) << "candidate " << ci;
    EXPECT_GE(diag.candidate_sse[ci], 0.0) << "candidate " << ci;
  }
}

/// Round-trips a threaded build through a file: the current layout, or
/// with `with_bloom` the older one that carries a Bloom filter after
/// the deltas (bloom_section_files.h).
void RoundTripSvdd(bool with_bloom) {
  const Matrix x = MakePhoneMatrix(150);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.num_threads = 8;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const std::string path = ::testing::TempDir() +
                           (with_bloom ? "/svdd_bloom.model"
                                       : "/svdd_nobloom.model");
  if (with_bloom) {
    ASSERT_TRUE(WriteModelWithBloomSection(*model, path).ok());
  } else {
    ASSERT_TRUE(model->SaveToFile(path).ok());
  }
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->rows(), model->rows());
  EXPECT_EQ(loaded->cols(), model->cols());
  EXPECT_EQ(loaded->k(), model->k());
  EXPECT_EQ(loaded->delta_count(), model->delta_count());
  for (std::size_t i = 0; i < loaded->rows(); i += 17) {
    for (std::size_t j = 0; j < loaded->cols(); j += 7) {
      EXPECT_EQ(loaded->ReconstructCell(i, j), model->ReconstructCell(i, j));
    }
  }
  // Every stored delta must survive the round trip.
  const auto original = model->deltas();
  loaded->deltas()->ForEach([&](std::size_t i, std::size_t j, double delta) {
    const auto stored = original->Find(i, j);
    ASSERT_TRUE(stored.has_value()) << "cell " << i << "," << j;
    EXPECT_EQ(*stored, delta);
  });
}

TEST(ParallelDeterminismTest, SvddRoundTripWithBloom) { RoundTripSvdd(true); }

TEST(ParallelDeterminismTest, SvddRoundTripWithoutBloom) {
  RoundTripSvdd(false);
}

}  // namespace
}  // namespace tsc
