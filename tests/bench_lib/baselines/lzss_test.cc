#include "lib/baselines/lzss.h"

#include <cstring>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(LzssTest, EmptyInput) {
  const auto compressed = LzssCompress({});
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_TRUE(decompressed->empty());
}

TEST(LzssTest, RoundTripShortString) {
  const auto input = Bytes("hello world hello world hello");
  const auto compressed = LzssCompress(input);
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(LzssTest, RoundTripRandomBytes) {
  Rng rng(1);
  std::vector<std::uint8_t> input(50000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.NextUint64());
  const auto compressed = LzssCompress(input);
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(LzssTest, RoundTripOverlappingMatches) {
  // "aaaa..." exercises self-referential (overlapping) matches.
  const std::vector<std::uint8_t> input(10000, 'a');
  const auto compressed = LzssCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(LzssTest, RepetitiveDataCompressesWell) {
  std::string pattern;
  for (int i = 0; i < 2000; ++i) pattern += "0.00,12.50,0.00,3.25\n";
  EXPECT_LT(LzssRatio(Bytes(pattern)), 0.15);
}

TEST(LzssTest, RandomDataDoesNotCompress) {
  Rng rng(2);
  std::vector<std::uint8_t> input(20000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.NextUint64());
  EXPECT_GT(LzssRatio(input), 0.95);
}

TEST(LzssTest, TruncatedStreamRejected) {
  const auto input = Bytes("abcabcabcabcabcabc");
  auto compressed = LzssCompress(input);
  compressed.resize(compressed.size() - 2);
  EXPECT_FALSE(LzssDecompress(compressed).ok());
  EXPECT_FALSE(LzssDecompress({compressed.data(), 4}).ok());
}

TEST(LzssTest, MatrixToBytesIsRawDoubles) {
  const Matrix m = Matrix::FromRows({{1.0, 2.0}});
  const auto bytes = MatrixToBytes(m);
  EXPECT_EQ(bytes.size(), 16u);
  double first = 0.0;
  std::memcpy(&first, bytes.data(), 8);
  EXPECT_EQ(first, 1.0);
}

TEST(LzssTest, MatrixToTextIsCsvLike) {
  const Matrix m = Matrix::FromRows({{1.5, 2.0}, {3.0, 4.0}});
  const auto bytes = MatrixToText(m, 1);
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_EQ(text, "1.5,2.0\n3.0,4.0\n");
}

TEST(LzssTest, PhoneDatasetRoundTripAndRatio) {
  PhoneDatasetConfig config;
  config.num_customers = 200;
  config.num_days = 60;
  const Matrix x = GeneratePhoneDataset(config).values;
  const auto text = MatrixToText(x);
  const auto compressed = LzssCompress(text);
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, text);
  // Structured warehouse text compresses substantially (paper: ~25%).
  EXPECT_LT(static_cast<double>(compressed.size()) / text.size(), 0.6);
}

/// Round-trip property across buffer sizes, including sizes around the
/// window boundary.
class LzssRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzssRoundTripTest, MixedContentRoundTrips) {
  const std::size_t size = GetParam();
  Rng rng(size);
  std::vector<std::uint8_t> input(size);
  for (std::size_t i = 0; i < size; ++i) {
    // Mixed: runs, cycles and noise.
    if (i % 3 == 0) {
      input[i] = static_cast<std::uint8_t>(i % 7);
    } else {
      input[i] = static_cast<std::uint8_t>(rng.UniformUint64(16));
    }
  }
  const auto compressed = LzssCompress(input);
  const auto decompressed = LzssDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzssRoundTripTest,
                         ::testing::Values(1, 2, 3, 17, 4095, 4096, 4097,
                                           20000));

}  // namespace
}  // namespace tsc
