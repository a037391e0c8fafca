#include "storage/io_backend.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/cached_row_reader.h"
#include "storage/row_store.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.Gaussian();
  return x;
}

TEST(IoBackendTest, ReadAtRangeChecked) {
  const Matrix x = RandomMatrix(4, 3, 7);
  const std::string path = TempPath("range.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto io = IoBackend::Open(path);
  ASSERT_TRUE(io.ok());
  std::vector<std::uint8_t> buf(16);
  EXPECT_TRUE((*io)->ReadAt(0, buf).ok());
  EXPECT_FALSE((*io)->ReadAt((*io)->size() - 8, buf).ok())
      << "past-EOF ranges must be rejected";
  std::vector<std::uint8_t> empty;
  EXPECT_TRUE((*io)->ReadAt((*io)->size(), empty).ok());
}

// Every read shape the row store exposes returns the bytes written.
TEST(IoBackendParityTest, RowsCellsBlocksAndBulkAgree) {
  const Matrix x = RandomMatrix(37, 19, 11);
  const std::string path = TempPath("parity.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());

  std::vector<double> row(reader->cols());
  for (const std::size_t i : {0u, 17u, 36u}) {
    ASSERT_TRUE(reader->ReadRow(i, row).ok());
    for (std::size_t j = 0; j < reader->cols(); ++j) {
      EXPECT_EQ(row[j], x(i, j));  // bitwise, not approximate
    }
  }
  const auto cell = reader->ReadCell(23, 7);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(*cell, x(23, 7));

  const auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, x);

  BlockCache::Block block(reader->counter().block_size());
  ASSERT_TRUE(reader->ReadBlock(0, block).ok());
  // Block 0 starts with the file header.
  EXPECT_EQ(std::memcmp(block.data(), "TSCROWS1", 8), 0);
}

TEST(IoBackendParityTest, BlocksMatchTheFileBytes) {
  const Matrix x = RandomMatrix(64, 33, 13);
  const std::string path = TempPath("parity_blocks.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const std::size_t block_size = reader->counter().block_size();
  const std::uint64_t blocks = (bytes.size() + block_size - 1) / block_size;
  ASSERT_GT(blocks, 1u);
  BlockCache::Block got(block_size);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(reader->ReadBlock(b, got).ok());
    // The last block is zero-padded past the end of the file.
    BlockCache::Block want(block_size, 0);
    const std::size_t from = b * block_size;
    std::copy(bytes.begin() + from,
              bytes.begin() + std::min(bytes.size(), from + block_size),
              want.begin());
    EXPECT_EQ(want, got) << "block " << b;
  }
}

TEST(IoBackendParityTest, ZeroRowFile) {
  const std::string path = TempPath("zero_rows.mat");
  auto writer = RowStoreWriter::Create(path, 5);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->rows(), 0u);
  EXPECT_EQ(reader->cols(), 5u);
  const auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows(), 0u);
  std::vector<double> row(5);
  EXPECT_FALSE(reader->ReadRow(0, row).ok());
}

TEST(IoBackendParityTest, TruncatedFileFailsAtOpen) {
  const Matrix x = RandomMatrix(12, 6, 17);
  const std::string path = TempPath("truncated.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  const auto reader = RowStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_NE(reader.status().ToString().find("size mismatch"),
            std::string::npos);
}

TEST(IoBackendParityTest, PaddedFileFailsAtOpen) {
  const Matrix x = RandomMatrix(8, 4, 19);
  const std::string path = TempPath("padded.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  std::ofstream pad(path, std::ios::binary | std::ios::app);
  pad.write("junk", 4);
  pad.close();
  EXPECT_FALSE(RowStoreReader::Open(path).ok());
}

TEST(IoBackendParityTest, OpenRangeServesOnlyTheRange) {
  // A section of a larger file: bytes [5000, 5300) of 12000, across a
  // page edge. Reads inside it succeed; reads outside it fail.
  const std::string path = TempPath("range.bin");
  std::vector<std::uint8_t> bytes(12000);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = i * 7 % 251;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto io = IoBackend::OpenRange(path, 5000, 300);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_EQ((*io)->size(), bytes.size());
  std::vector<std::uint8_t> got(300);
  ASSERT_TRUE((*io)->ReadAt(5000, got).ok());
  EXPECT_EQ(0, std::memcmp(got.data(), bytes.data() + 5000, got.size()));
  std::uint8_t one = 0;
  EXPECT_FALSE((*io)->ReadAt(4999, {&one, 1}).ok());
  EXPECT_FALSE((*io)->ReadAt(5300, {&one, 1}).ok());
}

TEST(IoBackendParityTest, OverflowingHeaderRejected) {
  // A header whose rows * cols * 8 wraps uint64 must not pass the size
  // check by accident; it must fail as InvalidArgument.
  const std::string path = TempPath("overflow.mat");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("TSCROWS1", 8);
  const std::uint64_t rows = 0x2000000000000000ULL;
  const std::uint64_t cols = 16;  // rows * cols * 8 == 2^64 -> wraps to 0
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  out.close();
  const auto reader = RowStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoBackendTest, FileShrunkAfterOpenIsAShortReadError) {
  // The range check passes (the size was fixed at open); the read itself
  // comes back short, and that is an IoError, not a crash.
  const Matrix x = RandomMatrix(40, 8, 31);
  const std::string path = TempPath("shrunk.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::filesystem::resize_file(path, 16);
  std::vector<double> row(x.cols());
  const Status status = reader->ReadRow(30, row);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_NE(status.ToString().find("short read"), std::string::npos);
  EXPECT_EQ(reader->ReadCell(30, 2).status().code(), StatusCode::kIoError);
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kIoError);
  FileRowSource source(std::move(*reader));
  ASSERT_TRUE(source.Reset().ok());
  EXPECT_EQ(source.NextRow(row).status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace tsc
