#include "storage/io_backend.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "obs/metrics.h"
#include "obs/query_context.h"

#if defined(__unix__) || defined(__APPLE__)
#define TSC_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#define TSC_HAS_MMAP 0
#endif

namespace tsc {
namespace {

/// One counter per backend name, bumped at open: a metrics snapshot shows
/// which engines a process actually ran with.
void CountBackendOpen(IoBackendKind kind) {
  obs::MetricRegistry::Default()
      .GetCounter(std::string("io.backend.") + IoBackendName(kind))
      .Increment();
}

// ---------------------------------------------------------------------------
// stream: the original ifstream engine. One shared seek cursor, so a
// mutex serializes every read — correct, portable, slow under threads.
// ---------------------------------------------------------------------------

class StreamIoBackend final : public IoBackend {
 public:
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path) {
    auto backend = std::unique_ptr<StreamIoBackend>(new StreamIoBackend());
    backend->in_.open(path, std::ios::binary);
    if (!backend->in_) return Status::IoError("cannot open: " + path);
    backend->in_.seekg(0, std::ios::end);
    const std::streamoff end = backend->in_.tellg();
    if (end < 0) return Status::IoError("cannot size: " + path);
    backend->size_ = static_cast<std::uint64_t>(end);
    return {std::move(backend)};
  }

  IoBackendKind kind() const override { return IoBackendKind::kStream; }

  Status ReadAt(std::uint64_t offset,
                std::span<std::uint8_t> out) const override {
    TSC_RETURN_IF_ERROR(CheckRange(offset, out.size()));
    if (out.empty()) return Status::Ok();
    std::lock_guard<std::mutex> lock(mu_);
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
    in_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    if (in_.gcount() != static_cast<std::streamsize>(out.size())) {
      return Status::IoError("short read");
    }
    CountRead(out.size());
    return Status::Ok();
  }

 private:
  StreamIoBackend() = default;

  mutable std::mutex mu_;
  mutable std::ifstream in_;
};

#if TSC_HAS_MMAP

// ---------------------------------------------------------------------------
// pread: positional reads on a raw descriptor. The kernel keeps no
// cursor for us to share, so concurrent reads need no lock at all.
// ---------------------------------------------------------------------------

class PreadIoBackend final : public IoBackend {
 public:
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("cannot open: " + path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("cannot stat: " + path);
    }
    auto backend = std::unique_ptr<PreadIoBackend>(new PreadIoBackend());
    backend->fd_ = fd;
    backend->size_ = static_cast<std::uint64_t>(st.st_size);
    return {std::move(backend)};
  }

  ~PreadIoBackend() override {
    if (fd_ >= 0) ::close(fd_);
  }

  IoBackendKind kind() const override { return IoBackendKind::kPread; }

  Status ReadAt(std::uint64_t offset,
                std::span<std::uint8_t> out) const override {
    TSC_RETURN_IF_ERROR(CheckRange(offset, out.size()));
    std::uint8_t* dest = out.data();
    std::uint64_t remaining = out.size();
    std::uint64_t cursor = offset;
    while (remaining > 0) {
      const ::ssize_t got =
          ::pread(fd_, dest, static_cast<std::size_t>(remaining),
                  static_cast<::off_t>(cursor));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pread failed");
      }
      if (got == 0) return Status::IoError("short read");
      dest += got;
      cursor += static_cast<std::uint64_t>(got);
      remaining -= static_cast<std::uint64_t>(got);
    }
    CountRead(out.size());
    return Status::Ok();
  }

 private:
  PreadIoBackend() = default;

  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// mmap: the whole file mapped read-only. ReadAt is a memcpy out of the
// mapping; Mapped() exposes the pages for zero-copy row views. The page
// cache does the real caching, madvise steers its readahead.
// ---------------------------------------------------------------------------

class MmapIoBackend final : public IoBackend {
 public:
  static StatusOr<std::unique_ptr<IoBackend>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("cannot open: " + path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("cannot stat: " + path);
    }
    auto backend = std::unique_ptr<MmapIoBackend>(new MmapIoBackend());
    backend->size_ = static_cast<std::uint64_t>(st.st_size);
    if (backend->size_ > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(backend->size_),
                         PROT_READ, MAP_SHARED, fd, 0);
      if (map == MAP_FAILED) {
        ::close(fd);
        return Status::IoError("mmap failed: " + path);
      }
      backend->map_ = static_cast<const std::uint8_t*>(map);
    }
    // The mapping pins the inode; the descriptor is no longer needed.
    ::close(fd);
    return {std::move(backend)};
  }

  ~MmapIoBackend() override {
    if (map_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(map_),
               static_cast<std::size_t>(size_));
    }
  }

  IoBackendKind kind() const override { return IoBackendKind::kMmap; }

  Status ReadAt(std::uint64_t offset,
                std::span<std::uint8_t> out) const override {
    TSC_RETURN_IF_ERROR(CheckRange(offset, out.size()));
    if (!out.empty()) std::memcpy(out.data(), map_ + offset, out.size());
    CountRead(out.size());
    return Status::Ok();
  }

  std::span<const std::uint8_t> Mapped() const override {
    return {map_, static_cast<std::size_t>(size_)};
  }

  void AdviseSequential() const override {
    if (map_ != nullptr) {
      ::madvise(const_cast<std::uint8_t*>(map_),
                static_cast<std::size_t>(size_), MADV_SEQUENTIAL);
    }
  }

 private:
  MmapIoBackend() = default;

  const std::uint8_t* map_ = nullptr;
};

#endif  // TSC_HAS_MMAP

}  // namespace

const char* IoBackendName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kStream:
      return "stream";
    case IoBackendKind::kPread:
      return "pread";
    case IoBackendKind::kMmap:
      return "mmap";
  }
  return "unknown";
}

StatusOr<IoBackendKind> ParseIoBackendName(const std::string& name) {
  if (name == "stream") return IoBackendKind::kStream;
  if (name == "pread") return IoBackendKind::kPread;
  if (name == "mmap") return IoBackendKind::kMmap;
  return Status::InvalidArgument("unknown io backend: " + name);
}

bool MmapAvailable() { return TSC_HAS_MMAP != 0; }

IoBackendKind ResolveIoBackend(const char* env_value, bool mmap_available) {
  if (env_value != nullptr) {
    const std::string value(env_value);
    if (value == "stream") return IoBackendKind::kStream;
    if (value == "pread") return IoBackendKind::kPread;
    if (value == "mmap") {
      return mmap_available ? IoBackendKind::kMmap : IoBackendKind::kPread;
    }
    // Unrecognized values fall through to the hardware default.
  }
  return mmap_available ? IoBackendKind::kMmap : IoBackendKind::kPread;
}

IoBackendKind DefaultIoBackendKind() {
  static const IoBackendKind kind =
      ResolveIoBackend(std::getenv("TSC_IO"), MmapAvailable());
  return kind;
}

Status IoBackend::CheckRange(std::uint64_t offset,
                             std::uint64_t length) const {
  if (offset > size_ || length > size_ - offset) {
    return Status::IoError("read past end of file");
  }
  return Status::Ok();
}

void IoBackend::CountRead(std::uint64_t bytes) {
  static obs::Counter& reads =
      obs::MetricRegistry::Default().GetCounter("io.reads");
  static obs::Counter& bytes_read =
      obs::MetricRegistry::Default().GetCounter("io.bytes_read");
  reads.Increment();
  bytes_read.Add(bytes);
  obs::ChargeIoBytes(bytes);
}

StatusOr<std::unique_ptr<IoBackend>> IoBackend::Open(const std::string& path,
                                                     IoBackendKind kind) {
#if !TSC_HAS_MMAP
  // Without POSIX I/O both fast engines degrade to the stream engine.
  kind = IoBackendKind::kStream;
#endif
  StatusOr<std::unique_ptr<IoBackend>> backend =
      Status::Internal("unreachable");
  switch (kind) {
    case IoBackendKind::kStream:
      backend = StreamIoBackend::Open(path);
      break;
#if TSC_HAS_MMAP
    case IoBackendKind::kPread:
      backend = PreadIoBackend::Open(path);
      break;
    case IoBackendKind::kMmap:
      backend = MmapIoBackend::Open(path);
      break;
#else
    default:
      backend = StreamIoBackend::Open(path);
      break;
#endif
  }
  if (backend.ok()) CountBackendOpen((*backend)->kind());
  return backend;
}

StatusOr<std::unique_ptr<IoBackend>> IoBackend::Open(const std::string& path) {
  return Open(path, DefaultIoBackendKind());
}

}  // namespace tsc
