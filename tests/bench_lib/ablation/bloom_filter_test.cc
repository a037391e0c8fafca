#include "lib/ablation/bloom_filter.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsc {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000);
  Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.NextUint64());
    filter.Add(keys.back());
  }
  for (const std::uint64_t key : keys) {
    EXPECT_TRUE(filter.MightContain(key));
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearDesign) {
  // 10 bits/entry targets ~1% FPR; allow generous slack.
  BloomFilter filter(5000, 10.0);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) filter.Add(rng.NextUint64());
  int false_positives = 0;
  const int probes = 100000;
  Rng other(999);  // disjoint key stream with overwhelming probability
  for (int i = 0; i < probes; ++i) {
    if (filter.MightContain(other.NextUint64())) ++false_positives;
  }
  const double fpr = static_cast<double>(false_positives) / probes;
  EXPECT_LT(fpr, 0.03);
  EXPECT_NEAR(filter.EstimatedFalsePositiveRate(), 0.01, 0.01);
}

TEST(BloomFilterTest, MoreBitsFewerFalsePositives) {
  Rng keys(3);
  std::vector<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) inserted.push_back(keys.NextUint64());

  double fpr_small = 0.0;
  double fpr_large = 0.0;
  for (const double bits : {4.0, 16.0}) {
    BloomFilter filter(inserted.size(), bits);
    for (const std::uint64_t k : inserted) filter.Add(k);
    Rng probe(555);
    int hits = 0;
    for (int i = 0; i < 50000; ++i) {
      if (filter.MightContain(probe.NextUint64())) ++hits;
    }
    (bits == 4.0 ? fpr_small : fpr_large) = hits / 50000.0;
  }
  EXPECT_GT(fpr_small, fpr_large);
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter filter(100);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(filter.MightContain(rng.NextUint64()));
  }
}

TEST(BloomFilterTest, SizeBytesPositiveAndProportional) {
  BloomFilter small(100, 10.0);
  BloomFilter large(10000, 10.0);
  EXPECT_GT(small.SizeBytes(), 0u);
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter filter(300, 12.0);
  Rng rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(rng.NextUint64());
    filter.Add(keys.back());
  }
  const std::string path = ::testing::TempDir() + "/bloom.bin";
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(filter.Serialize(&*writer).ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto loaded = BloomFilter::Deserialize(&*reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->bit_count(), filter.bit_count());
  EXPECT_EQ(loaded->hash_count(), filter.hash_count());
  for (const std::uint64_t key : keys) {
    EXPECT_TRUE(loaded->MightContain(key));
  }
}

/// Parameterized sweep: the no-false-negative invariant holds across
/// entry counts and bit densities.
class BloomPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(BloomPropertyTest, NeverForgetsInsertedKeys) {
  const auto [count, bits] = GetParam();
  BloomFilter filter(count, bits);
  Rng rng(count + static_cast<std::uint64_t>(bits));
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(rng.NextUint64());
    filter.Add(keys.back());
  }
  for (const std::uint64_t key : keys) {
    ASSERT_TRUE(filter.MightContain(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndDensities, BloomPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 10, 1000, 20000),
                       ::testing::Values(2.0, 8.0, 14.0)));

}  // namespace
}  // namespace tsc
