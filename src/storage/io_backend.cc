#include "storage/io_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "obs/metrics.h"
#include "obs/query_context.h"

namespace tsc {
namespace {

/// Bumps io.bytes_read and charges the request in flight.
void CountRead(std::uint64_t bytes) {
  static obs::Counter& bytes_read =
      obs::MetricRegistry::Default().GetCounter("io.bytes_read");
  bytes_read.Add(bytes);
  obs::ChargeIoBytes(bytes);
}

}  // namespace

IoBackend::~IoBackend() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<IoBackend>> IoBackend::OpenRange(
    const std::string& path, std::uint64_t offset, std::uint64_t length) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open: " + path);
  auto backend = std::unique_ptr<IoBackend>(new IoBackend());
  backend->fd_ = fd;
  struct stat st = {};
  if (::fstat(fd, &st) != 0) return Status::IoError("cannot stat: " + path);
  backend->size_ = static_cast<std::uint64_t>(st.st_size);
  backend->begin_ = std::min(offset, backend->size_);
  backend->end_ =
      backend->begin_ + std::min(length, backend->size_ - backend->begin_);
  return backend;
}

StatusOr<std::unique_ptr<IoBackend>> IoBackend::Open(const std::string& path) {
  return OpenRange(path, 0, std::numeric_limits<std::uint64_t>::max());
}

Status IoBackend::ReadAt(std::uint64_t offset,
                         std::span<std::uint8_t> out) const {
  if (offset < begin_ || offset > end_ || out.size() > end_ - offset) {
    return Status::IoError("read past end of file");
  }
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

}  // namespace tsc
