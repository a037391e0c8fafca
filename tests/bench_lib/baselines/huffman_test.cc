#include "lib/baselines/huffman.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "lib/baselines/lzss.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(HuffmanTest, EmptyInput) {
  const auto compressed = HuffmanCompress({});
  const auto back = HuffmanDecompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(HuffmanTest, SingleSymbolStream) {
  const std::vector<std::uint8_t> input(1000, 'x');
  const auto compressed = HuffmanCompress(input);
  // 1 bit per symbol + header.
  EXPECT_LT(compressed.size(), 8 + 256 + 1000 / 8 + 2);
  const auto back = HuffmanDecompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(HuffmanTest, RoundTripText) {
  const auto input =
      Bytes("the quick brown fox jumps over the lazy dog, repeatedly; "
            "the quick brown fox jumps over the lazy dog again.");
  const auto back = HuffmanDecompress(HuffmanCompress(input));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(HuffmanTest, RoundTripAllByteValues) {
  std::vector<std::uint8_t> input;
  for (int round = 0; round < 5; ++round) {
    for (int b = 0; b < 256; ++b) {
      input.push_back(static_cast<std::uint8_t>(b));
    }
  }
  const auto back = HuffmanDecompress(HuffmanCompress(input));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 90% one symbol: entropy ~0.47 bits + residue, far below 8.
  Rng rng(1);
  std::vector<std::uint8_t> input(50000);
  for (auto& b : input) {
    b = rng.Bernoulli(0.9) ? 'a' : static_cast<std::uint8_t>(rng.UniformUint64(8));
  }
  const auto compressed = HuffmanCompress(input);
  EXPECT_LT(static_cast<double>(compressed.size()) / input.size(), 0.35);
  const auto back = HuffmanDecompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(HuffmanTest, UniformRandomBarelyExpands) {
  Rng rng(2);
  std::vector<std::uint8_t> input(20000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.NextUint64());
  const auto compressed = HuffmanCompress(input);
  EXPECT_LT(compressed.size(), input.size() + 8 + 256 + 64);
  const auto back = HuffmanDecompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(HuffmanTest, TruncatedStreamRejected) {
  const auto input = Bytes("hello hello hello hello");
  auto compressed = HuffmanCompress(input);
  compressed.resize(compressed.size() - 1);
  EXPECT_FALSE(HuffmanDecompress(compressed).ok());
  EXPECT_FALSE(HuffmanDecompress({compressed.data(), 10}).ok());
}

TEST(DeflateLikeTest, RoundTripWarehouseText) {
  PhoneDatasetConfig config;
  config.num_customers = 150;
  config.num_days = 60;
  const Matrix x = GeneratePhoneDataset(config).values;
  const auto text = MatrixToText(x);
  const auto compressed = DeflateLikeCompress(text);
  const auto back = DeflateLikeDecompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(DeflateLikeTest, HuffmanStageImprovesOnLzssAlone) {
  // The point of adding the entropy stage: LZSS output bytes are highly
  // skewed on structured text, so Huffman shaves a further chunk.
  PhoneDatasetConfig config;
  config.num_customers = 200;
  config.num_days = 80;
  const Matrix x = GeneratePhoneDataset(config).values;
  const auto text = MatrixToText(x);
  const auto lz_only = LzssCompress(text);
  const auto deflate = DeflateLikeCompress(text);
  EXPECT_LT(deflate.size(), lz_only.size());
}

/// Round-trip property across content shapes.
class DeflateRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeflateRoundTripTest, RoundTrips) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> input(GetParam());
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = i % 5 == 0 ? 0 : static_cast<std::uint8_t>(rng.UniformUint64(32));
  }
  const auto back = DeflateLikeDecompress(DeflateLikeCompress(input));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeflateRoundTripTest,
                         ::testing::Values(0, 1, 100, 4097, 30000));

}  // namespace
}  // namespace tsc
