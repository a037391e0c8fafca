#include "data/dataset.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsc {
namespace {

Dataset SmallDataset() {
  Dataset d;
  d.name = "demo";
  d.values = Matrix::FromRows({{1.5, 2.0, 3.25}, {0.0, -1.0, 4.5}});
  d.row_labels = {"a", "b"};
  d.col_labels = {"mon", "tue", "wed"};
  return d;
}

TEST(DatasetTest, UncompressedBytes) {
  const Dataset d = SmallDataset();
  EXPECT_EQ(d.UncompressedBytes(), 2u * 3u * 8u);
}

TEST(DatasetTest, SubsetKeepsPrefix) {
  Dataset d = SmallDataset();
  const Dataset sub = d.Subset(1);
  EXPECT_EQ(sub.rows(), 1u);
  EXPECT_EQ(sub.cols(), 3u);
  EXPECT_EQ(sub.values(0, 2), 3.25);
  EXPECT_EQ(sub.name, "demo_1");
  ASSERT_EQ(sub.row_labels.size(), 1u);
  EXPECT_EQ(sub.row_labels[0], "a");
  EXPECT_EQ(sub.col_labels.size(), 3u);
}

TEST(DatasetTest, CsvRoundTripWithHeader) {
  const Dataset d = SmallDataset();
  const std::string path = ::testing::TempDir() + "/data.csv";
  ASSERT_TRUE(SaveCsv(d, path).ok());
  const auto loaded = LoadCsv(path, "demo2");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values, d.values);
  EXPECT_EQ(loaded->col_labels, d.col_labels);
  EXPECT_EQ(loaded->name, "demo2");
}

TEST(DatasetTest, CsvWithoutHeader) {
  Dataset d = SmallDataset();
  d.col_labels.clear();
  const std::string path = ::testing::TempDir() + "/nohdr.csv";
  ASSERT_TRUE(SaveCsv(d, path).ok());
  const auto loaded = LoadCsv(path, "x");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values, d.values);
  EXPECT_TRUE(loaded->col_labels.empty());
}

TEST(DatasetTest, CsvMissingFileFails) {
  EXPECT_FALSE(LoadCsv(::testing::TempDir() + "/nope.csv", "x").ok());
}

TEST(DatasetTest, BinaryRoundTrip) {
  const Dataset d = SmallDataset();
  const std::string path = ::testing::TempDir() + "/data.mat";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  const auto loaded = LoadBinary(path, "bin");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values, d.values);
}

}  // namespace
}  // namespace tsc
