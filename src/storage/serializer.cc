#include "storage/serializer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>

namespace tsc {
namespace {

// The library targets little-endian hosts (asserted here once); the format
// is defined as little-endian so files round-trip across builds.
bool HostIsLittleEndian() {
  const std::uint32_t probe = 1;
  unsigned char byte = 0;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

}  // namespace

StatusOr<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("big-endian hosts are not supported");
  }
  BinaryWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return writer;
}

Status BinaryWriter::WriteBytes(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) return Status::IoError("write failed");
  bytes_written_ += size;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    checksum_ = (checksum_ ^ bytes[i]) * kFnvPrime;
  }
  return Status::Ok();
}

Status BinaryWriter::FinishWithChecksum() {
  const std::uint64_t digest = checksum_;
  out_.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  if (!out_) return Status::IoError("checksum write failed");
  bytes_written_ += sizeof(digest);
  return Flush();
}

Status BinaryWriter::WriteU32(std::uint32_t value) {
  return WriteBytes(&value, sizeof(value));
}

Status BinaryWriter::WriteU64(std::uint64_t value) {
  return WriteBytes(&value, sizeof(value));
}

Status BinaryWriter::WriteDouble(double value) {
  return WriteBytes(&value, sizeof(value));
}

Status BinaryWriter::WriteString(const std::string& value) {
  TSC_RETURN_IF_ERROR(WriteU64(value.size()));
  return WriteBytes(value.data(), value.size());
}

Status BinaryWriter::WriteDoubleVector(const std::vector<double>& values) {
  TSC_RETURN_IF_ERROR(WriteU64(values.size()));
  if (!values.empty()) {
    TSC_RETURN_IF_ERROR(
        WriteBytes(values.data(), values.size() * sizeof(double)));
  }
  return Status::Ok();
}

Status BinaryWriter::WriteMatrix(const Matrix& matrix) {
  TSC_RETURN_IF_ERROR(WriteU64(matrix.rows()));
  TSC_RETURN_IF_ERROR(WriteU64(matrix.cols()));
  if (!matrix.data().empty()) {
    TSC_RETURN_IF_ERROR(WriteBytes(matrix.data().data(),
                                   matrix.data().size() * sizeof(double)));
  }
  return Status::Ok();
}

Status BinaryWriter::Flush() {
  out_.flush();
  if (!out_) return Status::IoError("flush failed");
  return Status::Ok();
}

StatusOr<BinaryReader> BinaryReader::Open(const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("big-endian hosts are not supported");
  }
  BinaryReader reader;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return reader;
}

Status BinaryReader::ReadBytes(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in_.gcount() != static_cast<std::streamsize>(size)) {
    return Status::IoError("unexpected end of file");
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    checksum_ = (checksum_ ^ bytes[i]) * BinaryWriter::kFnvPrime;
  }
  return Status::Ok();
}

Status BinaryReader::VerifyChecksum() {
  const std::uint64_t expected = checksum_;  // before consuming the trailer
  std::uint64_t stored = 0;
  in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (in_.gcount() != sizeof(stored)) {
    return Status::IoError("missing checksum trailer");
  }
  if (stored != expected) {
    return Status::IoError("checksum mismatch: file corrupt or truncated");
  }
  return Status::Ok();
}

StatusOr<std::uint32_t> BinaryReader::ReadU32() {
  std::uint32_t value = 0;
  TSC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<std::uint64_t> BinaryReader::ReadU64() {
  std::uint64_t value = 0;
  TSC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<double> BinaryReader::ReadDouble() {
  double value = 0;
  TSC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<std::string> BinaryReader::ReadString() {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t size, ReadU64());
  if (size > (1ULL << 32)) return Status::IoError("corrupt string length");
  std::string value(size, '\0');
  if (size > 0) TSC_RETURN_IF_ERROR(ReadBytes(value.data(), size));
  return value;
}

StatusOr<std::vector<double>> BinaryReader::ReadDoubleVector() {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t size, ReadU64());
  if (size > (1ULL << 40) / sizeof(double)) {
    return Status::IoError("corrupt vector length");
  }
  std::vector<double> values(size);
  if (size > 0) {
    TSC_RETURN_IF_ERROR(ReadBytes(values.data(), size * sizeof(double)));
  }
  return values;
}

StatusOr<Matrix> BinaryReader::ReadMatrix() {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t rows, ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t cols, ReadU64());
  if (rows > 0 && cols > std::numeric_limits<std::uint64_t>::max() / rows) {
    return Status::IoError("corrupt matrix dims");
  }
  const std::uint64_t count = rows * cols;
  if (count > (1ULL << 40) / sizeof(double)) {
    return Status::IoError("matrix too large");
  }
  Matrix m(rows, cols);
  if (count > 0) {
    TSC_RETURN_IF_ERROR(ReadBytes(m.data().data(), count * sizeof(double)));
  }
  return m;
}

Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(BinaryWriter*)>& write) {
  return ReplaceFileAtomically(path, [&](const std::string& temp) -> Status {
    TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(temp));
    TSC_RETURN_IF_ERROR(write(&writer));
    return writer.FinishWithChecksum();
  });
}

Status ReplaceFileAtomically(
    const std::string& path,
    const std::function<Status(const std::string& temp_path)>& write) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  Status status = write(temp);
  if (status.ok()) {
    const int fd = ::open(temp.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      status = Status::IoError("cannot fsync " + temp);
    }
    if (fd >= 0) ::close(fd);
  }
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + temp + " to " + path);
  }
  // unlink, not remove: a directory squatting on the temp name is not
  // ours to delete.
  if (!status.ok()) ::unlink(temp.c_str());
  return status;
}

}  // namespace tsc
