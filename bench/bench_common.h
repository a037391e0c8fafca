#ifndef TSC_BENCH_BENCH_COMMON_H_
#define TSC_BENCH_BENCH_COMMON_H_

// Shared RAII temp-store fixtures for the bench binaries. Every bench
// that serves from disk used to hand-roll the same four lines — pick a
// /tmp name, write the file, open a reader, never delete — and the
// copies had drifted on all three axes (naming, quant scheme, cache
// knobs). These wrappers own the lifetime instead: the file name is
// pid-qualified so two bench runs can share a machine, and the files
// are removed when the fixture goes out of scope.

#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "linalg/matrix.h"
#include "storage/quant.h"
#include "storage/row_store.h"
#include "util/logging.h"

namespace tsc::bench {

/// `/tmp/tsc_bench_<tag>_<pid><ext>` — unique per process so parallel
/// bench invocations (e.g. run_bench_suite.sh next to a manual run)
/// cannot clobber each other's files.
inline std::string TempPath(const std::string& tag, const std::string& ext) {
  return "/tmp/tsc_bench_" + tag + "_" + std::to_string(::getpid()) + ext;
}

/// A matrix written to a temp row-store file (optionally quantized),
/// removed on destruction. Open it with RowStoreReader::Open(path()).
class TempMatrixFile {
 public:
  TempMatrixFile(const Matrix& data, const std::string& tag,
                 QuantScheme scheme = QuantScheme::kF64)
      : path_(TempPath(tag, ".mat")) {
    TSC_CHECK_OK(WriteMatrixFile(path_, data, scheme));
  }
  ~TempMatrixFile() { std::remove(path_.c_str()); }

  TempMatrixFile(const TempMatrixFile&) = delete;
  TempMatrixFile& operator=(const TempMatrixFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// An SVDD model saved to a temporary model file and opened as a
/// DiskBackedStore (the paper's disk layout: U read from the file).
/// Reopen() drops the current store and opens the same file with
/// different serving knobs (cache size, I/O backend) — the
/// probe-then-cached pattern the quantized-serving sections use. The
/// file is removed on destruction.
class TempSvddStore {
 public:
  TempSvddStore(const SvddModel& model, const std::string& tag,
                const DiskBackedOptions& options = {})
      : path_(TempPath(tag, ".model")) {
    TSC_CHECK_OK(model.SaveToFile(path_));
    Reopen(options);
  }
  ~TempSvddStore() {
    store_.reset();
    std::remove(path_.c_str());
  }

  TempSvddStore(const TempSvddStore&) = delete;
  TempSvddStore& operator=(const TempSvddStore&) = delete;

  /// Re-opens the model file with new serving options (the old store,
  /// and with it any block cache, is discarded first).
  void Reopen(const DiskBackedOptions& options) {
    store_.reset();
    auto store = DiskBackedStore::Open(path_, options);
    TSC_CHECK_OK(store.status());
    store_ = std::make_unique<DiskBackedStore>(std::move(*store));
  }

  DiskBackedStore& store() { return *store_; }
  const DiskBackedStore& store() const { return *store_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::unique_ptr<DiskBackedStore> store_;
};

}  // namespace tsc::bench

#endif  // TSC_BENCH_BENCH_COMMON_H_
