// Answer dump: the reconstruction answers of one SVDD model, as raw
// doubles, served from memory and from the model file's disk layout, so
// two builds (or the two serving modes of one build) can be compared
// with `cmp`.
//
// Every dump holds, in order: every row; a cell batch (random cells, and
// each delta cell twice); regions with unsorted, repeated ids; the
// linear aggregates (sum/avg/count, ungrouped and grouped by row and by
// column) over runs that straddle the 64-row block and 4096-row
// superblock edges; and max/min over ragged runs. It writes
//   <out>/memory.bin                 the loaded model
//   <out>/disk_c<N>_<backend>.bin    DiskBackedStore over the model file,
//                                    cache 0 and 61 blocks, mmap and pread
// With --compare it exits 1 unless every disk dump equals memory.bin byte
// for byte (expected for every U encoding: the file stores the rows the
// in-memory model decodes to).
//
// Flags: --model=FILE (required) --out=DIR (default .) --compare
//
// The random ids come from a fixed seed, so two builds dump the same
// queries and their files compare with `cmp`.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "query/executor.h"
#include "storage/io_backend.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

/// Fixed so that every dump asks the same queries.
constexpr std::uint64_t kSeed = 1;
/// Random cells in the cell batch (each delta cell is added twice).
constexpr std::size_t kRandomCells = 1000;

std::string Run(std::size_t lo, std::size_t hi) {
  return lo == hi ? std::to_string(lo)
                  : std::to_string(lo) + ":" + std::to_string(hi);
}

/// Row selections for the aggregate queries: the full range, ragged
/// runs, one row, and runs across the block and superblock edges (where
/// the table is tall enough), clamped to the table.
std::vector<std::string> RowSelections(std::size_t n, tsc::Rng& rng) {
  const auto clamp = [n](std::size_t i) { return i < n ? i : n - 1; };
  std::vector<std::string> selections = {
      Run(0, n - 1), Run(clamp(3), clamp(70)), Run(clamp(5), clamp(5)),
      Run(clamp(60), clamp(130)), Run(clamp(4090), clamp(4200)),
      Run(clamp(1), clamp(n - 2)) + "," + Run(clamp(n - 1), clamp(n - 1))};
  for (int r = 0; r < 3; ++r) {
    const std::size_t a = rng.UniformUint64(n);
    const std::size_t b = rng.UniformUint64(n);
    selections.push_back(Run(a < b ? a : b, a < b ? b : a));
  }
  return selections;
}

/// Ids in [0, n), unsorted, with repeats and both ends.
std::vector<std::size_t> ShuffledIds(tsc::Rng& rng, std::size_t n,
                                     std::size_t count) {
  std::vector<std::size_t> ids = {n - 1, 0};
  for (std::size_t c = 0; c < count; ++c) ids.push_back(rng.UniformUint64(n));
  ids.push_back(ids[2]);
  return ids;
}

/// Appends every answer of the dump, in its fixed order, to `out`. The
/// in-memory model and the model over the disk layout run the same code.
tsc::Status Dump(const tsc::SvddModel& model, std::vector<double>* out) {
  const std::size_t n = model.rows();
  const std::size_t m = model.cols();
  tsc::Rng rng(kSeed);

  std::vector<double> row(m);
  for (std::size_t i = 0; i < n; ++i) {
    TSC_RETURN_IF_ERROR(model.TryReconstructRow(i, row));
    out->insert(out->end(), row.begin(), row.end());
  }

  std::vector<std::pair<std::size_t, std::size_t>> batch;
  for (std::size_t c = 0; c < kRandomCells; ++c) {
    batch.emplace_back(rng.UniformUint64(n), rng.UniformUint64(m));
  }
  model.deltas()->ForEach([&](std::size_t i, std::size_t j, double) {
    batch.emplace_back(i, j);
    batch.emplace_back(i, j);
  });
  for (const auto& [i, j] : batch) {
    TSC_ASSIGN_OR_RETURN(const double value, model.TryReconstructCell(i, j));
    out->push_back(value);
  }

  tsc::Matrix region;
  for (int r = 0; r < 4; ++r) {
    const std::vector<std::size_t> row_ids =
        ShuffledIds(rng, n, 5 + rng.UniformUint64(60));
    const std::vector<std::size_t> col_ids =
        ShuffledIds(rng, m, 3 + rng.UniformUint64(20));
    TSC_RETURN_IF_ERROR(model.ReconstructRegion(row_ids, col_ids, &region));
    out->insert(out->end(), region.data().begin(), region.data().end());
  }

  const tsc::QueryExecutor executor(&model);
  const std::string cols = Run(m / 5, m - 1 - m / 7);
  const std::vector<std::string> tails = {
      "", " and col in " + cols + " group by col", " group by row",
      " and col in " + cols};
  for (const std::string& rows : RowSelections(n, rng)) {
    for (const std::string& tail : tails) {
      for (const char* aggregates :
           {"sum(value), avg(value), count(value)", "max(value), min(value)"}) {
        const std::string query = std::string("select ") + aggregates +
                                  " where row in " + rows + tail;
        TSC_ASSIGN_OR_RETURN(const tsc::QueryResult result,
                             executor.Execute(query));
        out->insert(out->end(), result.values.begin(), result.values.end());
      }
    }
  }
  return tsc::Status::Ok();
}

tsc::Status WriteDoubles(const std::string& path,
                         const std::vector<double>& values) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(double)));
  file.close();
  return file ? tsc::Status::Ok()
              : tsc::Status::IoError("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const tsc::FlagParser flags(argc, argv);
  const std::string model_path = flags.GetString("model", "");
  const std::string out_dir = flags.GetString("out", ".");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "usage: answer_dump --model=FILE [--out=DIR] [--compare]\n");
    return 2;
  }
  auto model = tsc::SvddModel::LoadFromFile(model_path);
  TSC_CHECK_OK(model.status());

  std::vector<double> memory;
  TSC_CHECK_OK(Dump(*model, &memory));
  TSC_CHECK_OK(WriteDoubles(out_dir + "/memory.bin", memory));
  std::printf("memory: %zu doubles\n", memory.size());

  std::vector<tsc::IoBackendKind> backends;
  if (tsc::MmapAvailable()) backends.push_back(tsc::IoBackendKind::kMmap);
  backends.push_back(tsc::IoBackendKind::kPread);
  int differing = 0;
  for (const tsc::IoBackendKind backend : backends) {
    for (const std::size_t cache_blocks : {std::size_t{0}, std::size_t{61}}) {
      tsc::DiskBackedOptions options;
      options.io_backend = backend;
      options.cache_blocks = cache_blocks;
      auto store = tsc::DiskBackedStore::Open(model_path, options);
      TSC_CHECK_OK(store.status());
      std::vector<double> disk;
      TSC_CHECK_OK(Dump(store->model(), &disk));
      const std::string name = "disk_c" + std::to_string(cache_blocks) + "_" +
                               tsc::IoBackendName(backend);
      TSC_CHECK_OK(WriteDoubles(out_dir + "/" + name + ".bin", disk));
      const bool identical =
          disk.size() == memory.size() &&
          std::equal(disk.begin(), disk.end(), memory.begin(),
                     [](double a, double b) {
                       return std::memcmp(&a, &b, sizeof(double)) == 0;
                     });
      std::printf("%s: %zu doubles, %s memory\n", name.c_str(), disk.size(),
                  identical ? "identical to" : "differs from");
      if (!identical) ++differing;
    }
  }
  return flags.GetBool("compare", false) && differing > 0 ? 1 : 0;
}
