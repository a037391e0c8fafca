#ifndef TSC_STORAGE_IO_BACKEND_H_
#define TSC_STORAGE_IO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "util/status.h"

namespace tsc {

/// How a row-store file is read off the disk.
///
///  - kStream: the original buffered std::ifstream with a shared seek
///    cursor, serialized by a mutex. Kept as the portable reference and
///    the A/B baseline for the other two.
///  - kPread:  positional pread(2) on a plain file descriptor. No shared
///    cursor, no lock: concurrent ReadRow/ReadBlock calls proceed in
///    parallel on one open file.
///  - kMmap:   the whole file mapped read-only. Reads are memcpy (or
///    zero-copy spans straight into the mapping); the kernel page cache
///    acts as a free second-level block cache, and madvise() hints steer
///    readahead.
enum class IoBackendKind {
  kStream,
  kPread,
  kMmap,
};

/// Stable lowercase name ("stream", "pread", "mmap").
const char* IoBackendName(IoBackendKind kind);

/// Parses a backend name; anything other than the three names fails.
StatusOr<IoBackendKind> ParseIoBackendName(const std::string& name);

/// Whether this build can mmap files (POSIX mmap available).
bool MmapAvailable();

/// The dispatch decision as a pure function of its inputs (unit-testable
/// without touching the process environment): `env_value` is the raw
/// TSC_IO setting (null when unset), `mmap_available` whether the
/// platform supports mmap. Unset or unrecognized values pick mmap when
/// available, pread otherwise; "mmap" without platform support falls
/// back to pread.
IoBackendKind ResolveIoBackend(const char* env_value, bool mmap_available);

/// The backend RowStoreReader::Open(path) uses, resolved once per
/// process from TSC_IO and the platform (mirrors kernels::ActiveSimdLevel).
IoBackendKind DefaultIoBackendKind();

/// Read-only random access to one file. All implementations are safe for
/// concurrent ReadAt calls on a single instance; none maintains a seek
/// cursor visible to callers. Every read is accounted to the obs
/// counters `io.reads` / `io.bytes_read`.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  /// Opens `path` with an explicit backend, or the TSC_IO-resolved
  /// default.
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path,
                                                   IoBackendKind kind);
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path);
  /// Opens only bytes [offset, offset + length) of `path` (clamped to the
  /// file): reads outside them fail, and the mmap engine maps just their
  /// pages, so no neighbouring part of the file is mapped into the
  /// process.
  static StatusOr<std::unique_ptr<IoBackend>> OpenRange(
      const std::string& path, IoBackendKind kind, std::uint64_t offset,
      std::uint64_t length);

  virtual IoBackendKind kind() const = 0;
  const char* name() const { return IoBackendName(kind()); }

  /// File size in bytes, fixed at open.
  std::uint64_t size() const { return size_; }

  /// Reads exactly out.size() bytes starting at `offset`. A range that
  /// does not fit inside the file (or the range it was opened with) is
  /// an IoError (callers clamp tail reads themselves). Thread-safe.
  virtual Status ReadAt(std::uint64_t offset,
                        std::span<std::uint8_t> out) const = 0;

  /// Zero-copy view of the readable bytes for the mmap backend, starting
  /// at file offset range_offset(); empty span for the others. The view
  /// lives as long as the backend.
  virtual std::span<const std::uint8_t> Mapped() const { return {}; }
  /// The first readable file offset: 0 unless opened with OpenRange.
  std::uint64_t range_offset() const { return begin_; }

  /// Sequential-scan hint (madvise under mmap, a no-op elsewhere).
  virtual void AdviseSequential() const {}

 protected:
  IoBackend() = default;

  /// Sets the readable range to [offset, offset + length), clamped to
  /// size_.
  void SetRange(std::uint64_t offset, std::uint64_t length);
  /// Guards ReadAt ranges; shared by every implementation.
  Status CheckRange(std::uint64_t offset, std::uint64_t length) const;
  /// Bumps io.reads / io.bytes_read.
  static void CountRead(std::uint64_t bytes);

  std::uint64_t size_ = 0;
  std::uint64_t begin_ = 0;  ///< readable file bytes [begin_, end_)
  std::uint64_t end_ = 0;
};

}  // namespace tsc

#endif  // TSC_STORAGE_IO_BACKEND_H_
