#ifndef TSC_STORAGE_IO_BACKEND_H_
#define TSC_STORAGE_IO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "util/status.h"

namespace tsc {

/// Read-only random access to one file by positional pread(2) on a plain
/// file descriptor: the paper's unit of cost, one read of one byte range.
/// There is no seek cursor to share, so concurrent ReadAt calls on one
/// instance need no lock. Every read's bytes are accounted to the obs
/// counter `io.bytes_read`.
class IoBackend {
 public:
  ~IoBackend();

  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path);
  /// Opens only bytes [offset, offset + length) of `path` (clamped to the
  /// file): reads outside them fail.
  static StatusOr<std::unique_ptr<IoBackend>> OpenRange(
      const std::string& path, std::uint64_t offset, std::uint64_t length);

  /// File size in bytes, fixed at open.
  std::uint64_t size() const { return size_; }

  /// Reads exactly out.size() bytes starting at `offset`. A range that
  /// does not fit inside the file (or the range it was opened with) is
  /// an IoError (callers clamp tail reads themselves), and so is a file
  /// that has shrunk under the reader (a short read). Thread-safe.
  Status ReadAt(std::uint64_t offset, std::span<std::uint8_t> out) const;

 private:
  IoBackend() = default;

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t begin_ = 0;  ///< readable file bytes [begin_, end_)
  std::uint64_t end_ = 0;
};

}  // namespace tsc

#endif  // TSC_STORAGE_IO_BACKEND_H_
