#include "storage/row_store.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/serializer.h"
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

TEST(RowStoreTest, WriteReadRoundTrip) {
  const Matrix x = RandomMatrix(17, 9, 1);
  const std::string path = TempPath("roundtrip.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->rows(), 17u);
  EXPECT_EQ(reader->cols(), 9u);
  const auto loaded = reader->ReadAll();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, x);
}

TEST(RowStoreTest, RandomRowAccess) {
  const Matrix x = RandomMatrix(20, 5, 2);
  const std::string path = TempPath("random.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row(5);
  // Read rows out of order.
  for (const std::size_t i : {7u, 0u, 19u, 3u}) {
    ASSERT_TRUE(reader->ReadRow(i, row).ok());
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(row[j], x(i, j));
  }
}

TEST(RowStoreTest, ReadCell) {
  const Matrix x = RandomMatrix(10, 4, 3);
  const std::string path = TempPath("cell.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const auto cell = reader->ReadCell(6, 2);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(*cell, x(6, 2));
}

TEST(RowStoreTest, OutOfRangeRejected) {
  const Matrix x = RandomMatrix(4, 3, 4);
  const std::string path = TempPath("oob.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row(3);
  EXPECT_EQ(reader->ReadRow(4, row).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader->ReadCell(0, 3).status().code(), StatusCode::kOutOfRange);
  std::vector<double> wrong(2);
  EXPECT_EQ(reader->ReadRow(0, wrong).code(), StatusCode::kInvalidArgument);
}

TEST(RowStoreTest, SmallRowIsOneDiskAccess) {
  // A row of 9 doubles = 72 bytes fits in one 8 KiB block, so reading it
  // must cost exactly one access: the paper's headline property.
  const Matrix x = RandomMatrix(100, 9, 5);
  const std::string path = TempPath("access.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row(9);
  reader->counter().Reset();
  ASSERT_TRUE(reader->ReadRow(50, row).ok());
  EXPECT_EQ(reader->counter().accesses(), 1u);
}

TEST(RowStoreTest, HugeRowSpansMultipleBlocks) {
  // 2000 doubles = 16000 bytes spans 2-3 blocks of 8 KiB.
  const Matrix x = RandomMatrix(3, 2000, 6);
  const std::string path = TempPath("bigrow.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> row(2000);
  reader->counter().Reset();
  ASSERT_TRUE(reader->ReadRow(1, row).ok());
  EXPECT_GE(reader->counter().accesses(), 2u);
  EXPECT_LE(reader->counter().accesses(), 3u);
}

TEST(RowStoreTest, BadMagicRejected) {
  const std::string path = TempPath("bad.mat");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU64(0xdeadbeef).ok());
    ASSERT_TRUE(writer->WriteU64(0).ok());
    ASSERT_TRUE(writer->WriteU64(0).ok());
  }
  EXPECT_EQ(RowStoreReader::Open(path).status().code(), StatusCode::kIoError);
}

TEST(RowStoreTest, MissingFileRejected) {
  EXPECT_FALSE(RowStoreReader::Open(TempPath("does_not_exist.mat")).ok());
}

TEST(RowStoreTest, WriterRejectsWrongWidth) {
  auto writer = RowStoreWriter::Create(TempPath("w.mat"), 4);
  ASSERT_TRUE(writer.ok());
  std::vector<double> wrong(3, 0.0);
  EXPECT_EQ(writer->AppendRow(wrong).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->Close().code(), StatusCode::kFailedPrecondition);
}

TEST(DiskAccessCounterTest, CountsBlockSpans) {
  DiskAccessCounter counter(100);
  counter.RecordRead(0, 50);  // block 0
  EXPECT_EQ(counter.accesses(), 1u);
  counter.RecordRead(90, 20);  // blocks 0 and 1
  EXPECT_EQ(counter.accesses(), 3u);
  counter.RecordRead(250, 0);  // zero-length: free
  EXPECT_EQ(counter.accesses(), 3u);
  EXPECT_EQ(counter.bytes_read(), 70u);
  counter.Reset();
  EXPECT_EQ(counter.accesses(), 0u);
}

TEST(MatrixRowSourceTest, StreamsAllRowsAndCountsPasses) {
  const Matrix x = RandomMatrix(6, 3, 7);
  MatrixRowSource source(&x);
  EXPECT_EQ(source.passes_started(), 0u);
  std::vector<double> row(3);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(source.Reset().ok());
    std::size_t count = 0;
    for (;;) {
      const auto more = source.NextRow(row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(row[j], x(count, j));
      ++count;
    }
    EXPECT_EQ(count, 6u);
  }
  EXPECT_EQ(source.passes_started(), 2u);
}

TEST(FileRowSourceTest, MatchesMatrixSource) {
  const Matrix x = RandomMatrix(12, 5, 8);
  const std::string path = TempPath("source.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x).ok());
  auto reader = RowStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  FileRowSource source(std::move(*reader));
  ASSERT_TRUE(source.Reset().ok());
  std::vector<double> row(5);
  for (std::size_t i = 0; i < 12; ++i) {
    const auto more = source.NextRow(row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(row[j], x(i, j));
  }
  const auto end = source.NextRow(row);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
}

TEST(FileRowSourceTest, ChunkedPassesMatchReadRowForEveryEncoding) {
  // 3000 rows of 64 f64 coefficients are 1.5 MiB: the pass crosses a
  // chunk edge and ends in a short chunk, and the second pass rereads.
  const Matrix x = RandomMatrix(3000, 64, 9);
  for (const QuantScheme scheme :
       {QuantScheme::kF64, QuantScheme::kF32, QuantScheme::kI16,
        QuantScheme::kI8}) {
    SCOPED_TRACE(QuantSchemeName(scheme));
    const std::string path = TempPath("chunked.mat");
    ASSERT_TRUE(WriteMatrixFile(path, x, scheme).ok());
    auto reference = RowStoreReader::Open(path);
    ASSERT_TRUE(reference.ok());
    auto reader = RowStoreReader::Open(path);
    ASSERT_TRUE(reader.ok());
    FileRowSource source(std::move(*reader));
    std::vector<double> want(x.cols());
    std::vector<double> row(x.cols());
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(source.Reset().ok());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        const auto more = source.NextRow(row);
        ASSERT_TRUE(more.ok() && *more) << i;
        ASSERT_TRUE(reference->ReadRow(i, want).ok());
        ASSERT_EQ(row, want) << "pass " << pass << " row " << i;
      }
      const auto end = source.NextRow(row);
      ASSERT_TRUE(end.ok());
      EXPECT_FALSE(*end);
    }
    // Each chunk is one read, counted as one contiguous range: a pass
    // touches each block of the rows once (two at a chunk edge).
    const std::uint64_t payload_blocks =
        (source.reader().file_bytes() - source.reader().header_bytes()) /
            source.reader().counter().block_size() +
        1;
    EXPECT_LE(source.reader().counter().accesses(), 2 * (payload_blocks + 2));
    std::filesystem::remove(path);
  }
}

TEST(SerializerTest, PrimitivesRoundTrip) {
  const std::string path = TempPath("prims.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU32(0xabcd1234).ok());
    ASSERT_TRUE(writer->WriteU64(0x1122334455667788ULL).ok());
    ASSERT_TRUE(writer->WriteDouble(3.14159).ok());
    ASSERT_TRUE(writer->WriteString("hello world").ok());
    ASSERT_TRUE(writer->WriteDoubleVector({1.5, -2.5, 0.0}).ok());
    ASSERT_TRUE(writer->WriteMatrix(Matrix::FromRows({{1, 2}, {3, 4}})).ok());
    ASSERT_TRUE(writer->Flush().ok());
    EXPECT_GT(writer->bytes_written(), 0u);
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU32().value(), 0xabcd1234u);
  EXPECT_EQ(reader->ReadU64().value(), 0x1122334455667788ULL);
  EXPECT_DOUBLE_EQ(reader->ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader->ReadString().value(), "hello world");
  const auto vec = reader->ReadDoubleVector();
  ASSERT_TRUE(vec.ok());
  EXPECT_EQ(*vec, (std::vector<double>{1.5, -2.5, 0.0}));
  const auto m = reader->ReadMatrix();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, Matrix::FromRows({{1, 2}, {3, 4}}));
}

TEST(SerializerTest, TruncatedReadFails) {
  const std::string path = TempPath("trunc.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU32(7).ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->ReadU32().ok());
  EXPECT_FALSE(reader->ReadU64().ok());
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Names in `path`'s directory that start with its file name + ".tmp.".
std::vector<std::string> TempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(SerializerTest, AtomicWriteReplacesOrKeepsThePreviousFile) {
  const std::string path = TempPath("atomic.bin");
  ASSERT_TRUE(WriteFileAtomically(path, [](BinaryWriter* writer) {
                return writer->WriteString("first version");
              }).ok());
  const std::vector<char> first = FileBytes(path);
  ASSERT_FALSE(first.empty());

  // A writer that fails part-way: the old file survives byte for byte
  // and the half-written temp file is gone.
  const Status failed = WriteFileAtomically(path, [](BinaryWriter* writer) {
    TSC_RETURN_IF_ERROR(writer->WriteString("second, never finished"));
    return Status::IoError("injected");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(FileBytes(path), first);
  EXPECT_TRUE(TempSiblings(path).empty());

  ASSERT_TRUE(WriteFileAtomically(path, [](BinaryWriter* writer) {
                return writer->WriteString("second version");
              }).ok());
  EXPECT_TRUE(TempSiblings(path).empty());
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadString().value(), "second version");
  EXPECT_TRUE(reader->VerifyChecksum().ok());
}

}  // namespace
}  // namespace tsc
