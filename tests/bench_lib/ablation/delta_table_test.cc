#include "lib/ablation/delta_table.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsc {
namespace {

TEST(DeltaTableTest, EmptyLookupsMiss) {
  DeltaTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.Get(0).has_value());
  EXPECT_FALSE(table.Contains(42));
}

TEST(DeltaTableTest, PutThenGet) {
  DeltaTable table;
  table.Put(7, 1.5);
  table.Put(9, -2.25);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Get(7).value(), 1.5);
  EXPECT_EQ(table.Get(9).value(), -2.25);
  EXPECT_FALSE(table.Get(8).has_value());
}

TEST(DeltaTableTest, OverwriteKeepsSize) {
  DeltaTable table;
  table.Put(5, 1.0);
  table.Put(5, 3.0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Get(5).value(), 3.0);
}

TEST(DeltaTableTest, GrowthPreservesEntries) {
  DeltaTable table;  // starts tiny, must grow many times
  Rng rng(1);
  std::vector<std::pair<std::uint64_t, double>> entries;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.NextUint64();
    const double delta = rng.Gaussian();
    entries.emplace_back(key, delta);
    table.Put(key, delta);
  }
  for (const auto& [key, delta] : entries) {
    const auto found = table.Get(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, delta);
  }
}

TEST(DeltaTableTest, SequentialCellKeysDoNotDegrade) {
  // Cell keys are row*M + col, i.e. near-sequential integers — the hash
  // must spread them. With 10k sequential keys, mean probes/lookup should
  // stay small.
  DeltaTable table(10000);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    table.Put(k, static_cast<double>(k));
  }
  table.ResetProbeCount();
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(table.Get(k).has_value());
  }
  const double probes_per_lookup =
      static_cast<double>(table.probe_count()) / 10000.0;
  EXPECT_LT(probes_per_lookup, 3.0);
}

TEST(DeltaTableTest, CellKeyIsRowMajorRank) {
  EXPECT_EQ(DeltaTable::CellKey(0, 0, 100), 0u);
  EXPECT_EQ(DeltaTable::CellKey(0, 99, 100), 99u);
  EXPECT_EQ(DeltaTable::CellKey(1, 0, 100), 100u);
  EXPECT_EQ(DeltaTable::CellKey(3, 7, 366), 3u * 366 + 7);
}

TEST(DeltaTableTest, PackedBytesAccounting) {
  DeltaTable table;
  table.Put(1, 1.0);
  table.Put(2, 2.0);
  EXPECT_EQ(table.PackedBytes(), 2 * DeltaTable::kPackedEntryBytes);
}

TEST(DeltaTableTest, ForEachVisitsAll) {
  DeltaTable table;
  for (std::uint64_t k = 10; k < 20; ++k) table.Put(k, 0.5);
  std::size_t visits = 0;
  double total = 0.0;
  table.ForEach([&](std::uint64_t, double delta) {
    ++visits;
    total += delta;
  });
  EXPECT_EQ(visits, 10u);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(DeltaTableTest, SerializeRoundTrip) {
  DeltaTable table;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    table.Put(rng.NextUint64(), rng.Gaussian());
  }
  const std::string path = ::testing::TempDir() + "/deltas.bin";
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(table.Serialize(&*writer).ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto loaded = DeltaTable::Deserialize(&*reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), table.size());
  table.ForEach([&](std::uint64_t key, double delta) {
    const auto found = loaded->Get(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, delta);
  });
}

TEST(DeltaTableTest, ProbeCountTracksLookups) {
  DeltaTable table;
  table.Put(1, 1.0);
  table.ResetProbeCount();
  (void)table.Get(1);
  EXPECT_GE(table.probe_count(), 1u);
}

}  // namespace
}  // namespace tsc
