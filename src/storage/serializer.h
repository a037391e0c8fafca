#ifndef TSC_STORAGE_SERIALIZER_H_
#define TSC_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace tsc {

/// Little-endian binary writer for the model files (V, Lambda, deltas, ...).
/// All tsc on-disk formats are built from these primitives so they stay
/// byte-for-byte reproducible.
class BinaryWriter {
 public:
  /// Opens (truncates) `path` for writing.
  static StatusOr<BinaryWriter> Open(const std::string& path);

  BinaryWriter(BinaryWriter&&) = default;
  BinaryWriter& operator=(BinaryWriter&&) = default;

  Status WriteU32(std::uint32_t value);
  Status WriteU64(std::uint64_t value);
  Status WriteDouble(double value);
  Status WriteBytes(const void* data, std::size_t size);
  Status WriteString(const std::string& value);
  Status WriteDoubleVector(const std::vector<double>& values);
  /// Dims followed by row-major payload.
  Status WriteMatrix(const Matrix& matrix);

  Status Flush();
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Running FNV-1a hash of every byte written so far.
  std::uint64_t checksum() const { return checksum_; }
  /// Appends the running checksum as a trailer (call last; the trailer
  /// bytes themselves are excluded from the hash) and flushes.
  Status FinishWithChecksum();

 private:
  BinaryWriter() = default;

  std::ofstream out_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t checksum_ = kFnvOffsetBasis;

 public:
  static constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
};

/// Little-endian binary reader mirroring BinaryWriter.
class BinaryReader {
 public:
  static StatusOr<BinaryReader> Open(const std::string& path);

  BinaryReader(BinaryReader&&) = default;
  BinaryReader& operator=(BinaryReader&&) = default;

  StatusOr<std::uint32_t> ReadU32();
  StatusOr<std::uint64_t> ReadU64();
  StatusOr<double> ReadDouble();
  Status ReadBytes(void* data, std::size_t size);
  StatusOr<std::string> ReadString();
  StatusOr<std::vector<double>> ReadDoubleVector();
  StatusOr<Matrix> ReadMatrix();

  /// Running FNV-1a hash of every byte read so far.
  std::uint64_t checksum() const { return checksum_; }
  /// Byte offset of the next read in the file.
  std::uint64_t position() const { return position_; }
  /// Bytes left after position(); the vector and matrix readers refuse a
  /// header that promises more before they allocate.
  std::uint64_t remaining() const { return size_ - position_; }
  /// Reads the trailer written by FinishWithChecksum and compares it to
  /// the running hash; kIoError on mismatch (corruption or truncation).
  Status VerifyChecksum();

 private:
  BinaryReader() = default;

  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::uint64_t position_ = 0;
  std::uint64_t checksum_ = BinaryWriter::kFnvOffsetBasis;
};

/// Writes `path` so that readers see either the previous file or the
/// complete new one: `write` fills `<path>.tmp.<pid>`, which gets the
/// checksum trailer, is flushed and fsync'ed, and is then renamed over
/// `path`. On any failure the temp file is removed and `path` is left
/// untouched.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(BinaryWriter*)>& write);

}  // namespace tsc

#endif  // TSC_STORAGE_SERIALIZER_H_
