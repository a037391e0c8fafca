#include "storage/io_backend.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "storage/cached_row_reader.h"
#include "storage/row_store.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::string TempPath(const std::string& name) {
  // Per-process suffix: the io_parity_scalar_env re-run executes this
  // binary while ctest -j runs the discovered tests in their own
  // processes — fixed names would have them truncating each other.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

Matrix RandomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.Gaussian();
  return x;
}

std::vector<IoBackendKind> AllBackends() {
  return {IoBackendKind::kStream, IoBackendKind::kPread, IoBackendKind::kMmap};
}

TEST(IoBackendResolveTest, DefaultsToMmapWhenAvailable) {
  EXPECT_EQ(ResolveIoBackend(nullptr), IoBackendKind::kMmap);
  EXPECT_EQ(ResolveIoBackend(""), IoBackendKind::kMmap);
}

TEST(IoBackendResolveTest, EnvOverridesRespected) {
  EXPECT_EQ(ResolveIoBackend("stream"), IoBackendKind::kStream);
  EXPECT_EQ(ResolveIoBackend("pread"), IoBackendKind::kPread);
  EXPECT_EQ(ResolveIoBackend("mmap"), IoBackendKind::kMmap);
}

TEST(IoBackendResolveTest, UnknownValuesPickTheDefault) {
  EXPECT_EQ(ResolveIoBackend("uring"), IoBackendKind::kMmap);
  EXPECT_EQ(ResolveIoBackend("MMAP"), IoBackendKind::kMmap);
}

TEST(IoBackendResolveTest, ParseNames) {
  ASSERT_TRUE(ParseIoBackendName("stream").ok());
  EXPECT_EQ(*ParseIoBackendName("stream"), IoBackendKind::kStream);
  EXPECT_EQ(*ParseIoBackendName("pread"), IoBackendKind::kPread);
  EXPECT_EQ(*ParseIoBackendName("mmap"), IoBackendKind::kMmap);
  EXPECT_FALSE(ParseIoBackendName("uring").ok());
  EXPECT_FALSE(ParseIoBackendName("").ok());
}

TEST(IoBackendResolveTest, NamesRoundTrip) {
  for (const IoBackendKind kind : AllBackends()) {
    const auto parsed = ParseIoBackendName(IoBackendName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(IoBackendTest, ReadAtRangeChecked) {
  const Matrix x = RandomMatrix(4, 3, 7);
  const std::string path = TempPath("range.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  for (const IoBackendKind kind : AllBackends()) {
    auto io = IoBackend::Open(path, kind);
    ASSERT_TRUE(io.ok()) << IoBackendName(kind);
    std::vector<std::uint8_t> buf(16);
    EXPECT_TRUE((*io)->ReadAt(0, buf).ok());
    EXPECT_FALSE((*io)->ReadAt((*io)->size() - 8, buf).ok())
        << IoBackendName(kind) << " must reject past-EOF ranges";
    std::vector<std::uint8_t> empty;
    EXPECT_TRUE((*io)->ReadAt((*io)->size(), empty).ok());
  }
}

// The tentpole parity guarantee: every backend returns bit-identical
// bytes for every read shape the row store exposes.
TEST(IoBackendParityTest, RowsCellsBlocksAndBulkAgree) {
  const Matrix x = RandomMatrix(37, 19, 11);
  const std::string path = TempPath("parity.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    auto reader = RowStoreReader::Open(path, kind);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader->backend_kind(), kind);

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
}

TEST(IoBackendParityTest, BlocksBitIdenticalAcrossBackends) {
  const Matrix x = RandomMatrix(64, 33, 13);
  const std::string path = TempPath("parity_blocks.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reference = RowStoreReader::Open(path, IoBackendKind::kStream);
  ASSERT_TRUE(reference.ok());
  const std::size_t block_size = reference->counter().block_size();
  const std::uint64_t blocks =
      (reference->file_bytes() + block_size - 1) / block_size;
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    auto reader = RowStoreReader::Open(path, kind);
    ASSERT_TRUE(reader.ok());
    BlockCache::Block want(block_size);
    BlockCache::Block got(block_size);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(reference->ReadBlock(b, want).ok());
      ASSERT_TRUE(reader->ReadBlock(b, got).ok());
      EXPECT_EQ(want, got) << "block " << b;
    }
  }
}

TEST(IoBackendParityTest, ZeroRowFile) {
  const std::string path = TempPath("zero_rows.mat");
  auto writer = RowStoreWriter::Create(path, 5);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    auto reader = RowStoreReader::Open(path, kind);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader->rows(), 0u);
    EXPECT_EQ(reader->cols(), 5u);
    const auto all = reader->ReadAll();
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->rows(), 0u);
    std::vector<double> row(5);
    EXPECT_FALSE(reader->ReadRow(0, row).ok());
  }
}

TEST(IoBackendParityTest, TruncatedFileFailsAtOpen) {
  const Matrix x = RandomMatrix(12, 6, 17);
  const std::string path = TempPath("truncated.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    const auto reader = RowStoreReader::Open(path, kind);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
    EXPECT_NE(reader.status().ToString().find("size mismatch"),
              std::string::npos);
  }
}

TEST(IoBackendParityTest, PaddedFileFailsAtOpen) {
  const Matrix x = RandomMatrix(8, 4, 19);
  const std::string path = TempPath("padded.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  std::ofstream pad(path, std::ios::binary | std::ios::app);
  pad.write("junk", 4);
  pad.close();
  for (const IoBackendKind kind : AllBackends()) {
    EXPECT_FALSE(RowStoreReader::Open(path, kind).ok())
        << IoBackendName(kind);
  }
}

TEST(IoBackendParityTest, OpenRangeServesOnlyTheRange) {
  // A section of a larger file: bytes [5000, 5300) of 12000, across a
  // page edge. Every engine reads inside it and refuses reads outside;
  // the mmap engine maps just that section.
  const std::string path = TempPath("range.bin");
  std::vector<std::uint8_t> bytes(12000);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = i * 7 % 251;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    auto io = IoBackend::OpenRange(path, kind, 5000, 300);
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    EXPECT_EQ((*io)->size(), bytes.size());
    EXPECT_EQ((*io)->range_offset(), 5000u);
    std::vector<std::uint8_t> got(300);
    ASSERT_TRUE((*io)->ReadAt(5000, got).ok());
    EXPECT_EQ(0, std::memcmp(got.data(), bytes.data() + 5000, got.size()));
    std::uint8_t one = 0;
    EXPECT_FALSE((*io)->ReadAt(4999, {&one, 1}).ok());
    EXPECT_FALSE((*io)->ReadAt(5300, {&one, 1}).ok());
    const std::span<const std::uint8_t> mapped = (*io)->Mapped();
    if (kind == IoBackendKind::kMmap) {
      ASSERT_EQ(mapped.size(), 300u);
      EXPECT_EQ(0, std::memcmp(mapped.data(), bytes.data() + 5000, 300));
    } else {
      EXPECT_TRUE(mapped.empty());
    }
  }
}

TEST(IoBackendParityTest, OverflowingHeaderRejected) {
  // A header whose rows * cols * 8 wraps uint64 must not pass the size
  // check by accident; it must fail as InvalidArgument, on every
  // backend.
  const std::string path = TempPath("overflow.mat");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("TSCROWS1", 8);
  const std::uint64_t rows = 0x2000000000000000ULL;
  const std::uint64_t cols = 16;  // rows * cols * 8 == 2^64 -> wraps to 0
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  out.close();
  for (const IoBackendKind kind : AllBackends()) {
    SCOPED_TRACE(IoBackendName(kind));
    const auto reader = RowStoreReader::Open(path, kind);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(IoBackendTest, ReadRowViewIsZeroCopyUnderMmap) {
  const Matrix x = RandomMatrix(9, 7, 23);
  const std::string path = TempPath("rowview.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path, IoBackendKind::kMmap);
  ASSERT_TRUE(reader.ok());
  const std::span<const std::uint8_t> mapped = reader->io().Mapped();
  ASSERT_FALSE(mapped.empty());
  std::vector<double> scratch(reader->cols(), -1.0);
  const auto view = reader->ReadRowView(4, scratch);
  ASSERT_TRUE(view.ok());
  // The span points into the mapping and the scratch buffer is untouched.
  const auto* begin = reinterpret_cast<const std::uint8_t*>(view->data());
  EXPECT_GE(begin, mapped.data());
  EXPECT_LT(begin, mapped.data() + mapped.size());
  for (const double v : scratch) EXPECT_EQ(v, -1.0);
  for (std::size_t j = 0; j < reader->cols(); ++j) {
    EXPECT_EQ((*view)[j], x(4, j));
  }
}

TEST(IoBackendTest, ReadRowViewFallsBackToScratch) {
  const Matrix x = RandomMatrix(9, 7, 29);
  const std::string path = TempPath("rowview_scratch.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path, IoBackendKind::kPread);
  ASSERT_TRUE(reader.ok());
  std::vector<double> scratch(reader->cols());
  const auto view = reader->ReadRowView(2, scratch);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), scratch.data());
  for (std::size_t j = 0; j < reader->cols(); ++j) {
    EXPECT_EQ((*view)[j], x(2, j));
  }
}

}  // namespace
}  // namespace tsc
