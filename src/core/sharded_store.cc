#include "core/sharded_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "core/compressed_store.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "storage/row_source.h"
#include "util/thread_pool.h"

namespace tsc {

namespace {

constexpr char kShardManifestMagic[9] = {'T', 'S', 'C', 'S', 'H',
                                         'A', 'R', 'D', '1'};
constexpr std::uint32_t kShardManifestVersion = 1;

/// Directory prefix of `path` including the trailing separator, or ""
/// for a bare filename — shard paths in the manifest are relative to
/// the manifest's directory so the file set can be moved as a unit.
std::string DirOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string BaseNameOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// RowSource over a contiguous row window of an in-memory matrix; the
/// per-shard builds stream their slice without copying the dataset.
class MatrixSliceRowSource final : public RowSource {
 public:
  MatrixSliceRowSource(const Matrix* matrix, std::size_t row_begin,
                       std::size_t row_count)
      : matrix_(matrix), row_begin_(row_begin), row_count_(row_count) {}

  std::size_t rows() const override { return row_count_; }
  std::size_t cols() const override { return matrix_->cols(); }

  StatusOr<bool> NextRow(std::span<double> out) override {
    if (next_ >= row_count_) return false;
    std::span<const double> row = matrix_->Row(row_begin_ + next_);
    std::copy(row.begin(), row.end(), out.begin());
    ++next_;
    return true;
  }

 protected:
  Status ResetImpl() override {
    next_ = 0;
    return Status::Ok();
  }

 private:
  const Matrix* matrix_;
  std::size_t row_begin_;
  std::size_t row_count_;
  std::size_t next_ = 0;
};

void ChargeShardScatter(std::size_t active_shards) {
  static obs::Counter& shard_queries =
      obs::MetricRegistry::Default().GetCounter("shard.queries");
  static obs::Counter& shard_fanout =
      obs::MetricRegistry::Default().GetCounter("shard.fanout");
  shard_queries.Add(1);
  shard_fanout.Add(active_shards);
  obs::ChargeShardQuery();
  obs::ChargeShardFanout(active_shards);
}

}  // namespace

const char* ShardPartitionName(ShardPartition partition) {
  switch (partition) {
    case ShardPartition::kRange:
      return "range";
    case ShardPartition::kHash:
      return "hash";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ShardLayout
// ---------------------------------------------------------------------------

StatusOr<ShardLayout> ShardLayout::Make(ShardPartition partition,
                                        std::size_t total_rows,
                                        std::size_t shard_count) {
  if (shard_count == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (shard_count > total_rows) {
    return Status::InvalidArgument(
        "shard count exceeds row count: every shard must own at least one "
        "row");
  }
  ShardLayout layout;
  layout.partition = partition;
  layout.total_rows = total_rows;
  layout.shard_count = shard_count;
  if (partition == ShardPartition::kRange) {
    // Balanced contiguous slices; the first total % S shards take one
    // extra row.
    const std::size_t base = total_rows / shard_count;
    const std::size_t rem = total_rows % shard_count;
    layout.range_begin.resize(shard_count + 1);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      layout.range_begin[s] = begin;
      begin += base + (s < rem ? 1 : 0);
    }
    layout.range_begin[shard_count] = begin;
  }
  return layout;
}

StatusOr<ShardLayout> ShardLayout::MakeRange(
    const std::vector<std::size_t>& row_counts) {
  if (row_counts.empty()) {
    return Status::InvalidArgument("range layout needs at least one shard");
  }
  ShardLayout layout;
  layout.partition = ShardPartition::kRange;
  layout.shard_count = row_counts.size();
  layout.range_begin.resize(row_counts.size() + 1);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < row_counts.size(); ++s) {
    if (row_counts[s] == 0) {
      return Status::InvalidArgument("range shard with zero rows");
    }
    layout.range_begin[s] = begin;
    begin += row_counts[s];
  }
  layout.range_begin[row_counts.size()] = begin;
  layout.total_rows = begin;
  return layout;
}

std::size_t ShardLayout::RowsIn(std::size_t shard) const {
  if (partition == ShardPartition::kRange) {
    return range_begin[shard + 1] - range_begin[shard];
  }
  // Round-robin: shards with index < total % S hold one extra row.
  return (total_rows + shard_count - 1 - shard) / shard_count;
}

std::size_t ShardLayout::ShardOf(std::size_t global_row) const {
  if (partition == ShardPartition::kHash) return global_row % shard_count;
  // upper_bound over the S+1 boundaries: first boundary > row, minus one.
  auto it = std::upper_bound(range_begin.begin(), range_begin.end(),
                             global_row);
  return static_cast<std::size_t>(it - range_begin.begin()) - 1;
}

std::pair<std::size_t, std::size_t> ShardLayout::Locate(
    std::size_t global_row) const {
  if (partition == ShardPartition::kHash) {
    return {global_row % shard_count, global_row / shard_count};
  }
  std::size_t shard = ShardOf(global_row);
  return {shard, global_row - range_begin[shard]};
}

std::size_t ShardLayout::GlobalOf(std::size_t shard,
                                  std::size_t local_row) const {
  if (partition == ShardPartition::kHash) {
    return local_row * shard_count + shard;
  }
  return range_begin[shard] + local_row;
}

void ShardLayout::AppendRows(std::size_t count) {
  total_rows += count;
  if (partition == ShardPartition::kRange) {
    // The last shard absorbs appends so no existing row is remapped.
    range_begin[shard_count] += count;
  }
}

// ---------------------------------------------------------------------------
// ShardManifest
// ---------------------------------------------------------------------------

StatusOr<ShardLayout> ShardManifest::Layout() const {
  if (partition == ShardPartition::kRange) {
    std::vector<std::size_t> counts;
    counts.reserve(shards.size());
    for (const ShardManifestEntry& entry : shards) {
      counts.push_back(entry.row_count);
    }
    StatusOr<ShardLayout> layout = ShardLayout::MakeRange(counts);
    if (layout.ok() && layout->total_rows != total_rows) {
      return Status::IoError(
          "shard manifest row counts do not sum to total_rows");
    }
    return layout;
  }
  StatusOr<ShardLayout> layout =
      ShardLayout::Make(partition, total_rows, shards.size());
  if (!layout.ok()) return layout.status();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].row_count != layout->RowsIn(s)) {
      return Status::IoError(
          "hash shard manifest row counts violate the modulo rule");
    }
  }
  return layout;
}

Status ShardManifest::SaveToFile(const std::string& path) const {
  StatusOr<BinaryWriter> writer = BinaryWriter::Open(path);
  if (!writer.ok()) return writer.status();
  TSC_RETURN_IF_ERROR(
      writer->WriteBytes(kShardManifestMagic, sizeof(kShardManifestMagic)));
  TSC_RETURN_IF_ERROR(writer->WriteU32(kShardManifestVersion));
  TSC_RETURN_IF_ERROR(writer->WriteU32(static_cast<std::uint32_t>(partition)));
  TSC_RETURN_IF_ERROR(writer->WriteU64(total_rows));
  TSC_RETURN_IF_ERROR(writer->WriteU64(total_cols));
  TSC_RETURN_IF_ERROR(
      writer->WriteU32(static_cast<std::uint32_t>(shards.size())));
  for (const ShardManifestEntry& entry : shards) {
    TSC_RETURN_IF_ERROR(writer->WriteString(entry.path));
    TSC_RETURN_IF_ERROR(writer->WriteU64(entry.row_count));
    TSC_RETURN_IF_ERROR(
        writer->WriteU32(static_cast<std::uint32_t>(entry.quant)));
    TSC_RETURN_IF_ERROR(writer->WriteU64(entry.k));
    TSC_RETURN_IF_ERROR(writer->WriteU64(entry.delta_count));
  }
  return writer->FinishWithChecksum();
}

StatusOr<ShardManifest> ShardManifest::LoadFromFile(const std::string& path) {
  StatusOr<BinaryReader> reader = BinaryReader::Open(path);
  if (!reader.ok()) return reader.status();
  char magic[sizeof(kShardManifestMagic)] = {};
  TSC_RETURN_IF_ERROR(reader->ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kShardManifestMagic, sizeof(magic)) != 0) {
    return Status::IoError("not a TSCSHARD1 manifest: bad magic");
  }
  TSC_ASSIGN_OR_RETURN(std::uint32_t version, reader->ReadU32());
  if (version != kShardManifestVersion) {
    return Status::IoError("unsupported TSCSHARD1 version");
  }
  ShardManifest manifest;
  TSC_ASSIGN_OR_RETURN(std::uint32_t partition, reader->ReadU32());
  if (partition > static_cast<std::uint32_t>(ShardPartition::kHash)) {
    return Status::IoError("unknown shard partition kind");
  }
  manifest.partition = static_cast<ShardPartition>(partition);
  TSC_ASSIGN_OR_RETURN(manifest.total_rows, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(manifest.total_cols, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(std::uint32_t shard_count, reader->ReadU32());
  if (shard_count == 0) {
    return Status::IoError("TSCSHARD1 manifest with zero shards");
  }
  manifest.shards.resize(shard_count);
  for (ShardManifestEntry& entry : manifest.shards) {
    TSC_ASSIGN_OR_RETURN(entry.path, reader->ReadString());
    TSC_ASSIGN_OR_RETURN(entry.row_count, reader->ReadU64());
    TSC_ASSIGN_OR_RETURN(std::uint32_t quant, reader->ReadU32());
    if (quant > static_cast<std::uint32_t>(QuantScheme::kI8)) {
      return Status::IoError("unknown shard quant scheme");
    }
    entry.quant = static_cast<QuantScheme>(quant);
    TSC_ASSIGN_OR_RETURN(entry.k, reader->ReadU64());
    TSC_ASSIGN_OR_RETURN(entry.delta_count, reader->ReadU64());
  }
  TSC_RETURN_IF_ERROR(reader->VerifyChecksum());
  // Surface inconsistent layouts at load time, not first query.
  TSC_RETURN_IF_ERROR(manifest.Layout().status());
  return manifest;
}

bool ShardManifest::IsManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kShardManifestMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kShardManifestMagic, sizeof(magic)) == 0;
}

// ---------------------------------------------------------------------------
// ShardedStore
// ---------------------------------------------------------------------------

ShardedStore::ShardedStore(std::vector<SvddModel> models, ShardLayout layout)
    : models_(std::move(models)), layout_(std::move(layout)) {
  assert(models_.size() == layout_.shard_count);
}

std::size_t ShardedStore::cols() const { return models_.front().cols(); }

StatusOr<ShardedStore> ShardedStore::LoadFromManifest(
    const std::string& manifest_path) {
  TSC_ASSIGN_OR_RETURN(ShardManifest manifest,
                       ShardManifest::LoadFromFile(manifest_path));
  TSC_ASSIGN_OR_RETURN(ShardLayout layout, manifest.Layout());
  const std::string dir = DirOf(manifest_path);
  std::vector<SvddModel> models;
  models.reserve(manifest.shards.size());
  for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardManifestEntry& entry = manifest.shards[s];
    TSC_ASSIGN_OR_RETURN(SvddModel model,
                         SvddModel::LoadFromFile(dir + entry.path));
    if (model.rows() != entry.row_count || model.cols() != manifest.total_cols) {
      return Status::IoError("shard model shape disagrees with manifest");
    }
    models.push_back(std::move(model));
  }
  return ShardedStore(std::move(models), std::move(layout));
}

Status ShardedStore::SaveToFiles(const std::string& manifest_path) const {
  ShardManifest manifest;
  manifest.partition = layout_.partition;
  manifest.total_rows = layout_.total_rows;
  manifest.total_cols = cols();
  manifest.shards.resize(models_.size());
  const std::string base = BaseNameOf(manifest_path);
  const std::string dir = DirOf(manifest_path);
  for (std::size_t s = 0; s < models_.size(); ++s) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".shard%zu", s);
    ShardManifestEntry& entry = manifest.shards[s];
    entry.path = base + suffix;
    entry.row_count = models_[s].rows();
    entry.quant = models_[s].svd().quant_scheme();
    entry.k = models_[s].k();
    entry.delta_count = models_[s].delta_count();
    TSC_RETURN_IF_ERROR(models_[s].SaveToFile(dir + entry.path));
  }
  return manifest.SaveToFile(manifest_path);
}

std::vector<ShardedStore::ShardSelection> ShardedStore::PartitionRows(
    std::span<const std::size_t> row_ids) const {
  std::vector<ShardSelection> selections(models_.size());
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    auto [shard, local] = layout_.Locate(row_ids[i]);
    selections[shard].local_rows.push_back(local);
    selections[shard].out_index.push_back(i);
  }
  return selections;
}

void ShardedStore::ForEachShard(
    const std::vector<std::size_t>& active,
    const std::function<void(std::size_t)>& fn) const {
  if (fan_out_pool_ != nullptr && active.size() > 1) {
    // Overlapping fan-outs (e.g. the executor's scan shards all hitting
    // ReconstructRegion) fall back to the serial loop instead of
    // deadlocking on the non-reentrant pool. Either path computes
    // identical results because every shard writes disjoint output
    // slots.
    std::unique_lock<std::mutex> lock(*fan_out_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      obs::QueryContext* parent = obs::CurrentQueryContext();
      ParallelFor(fan_out_pool_.get(), active.size(),
                  [&](std::size_t i) {
                    obs::ScopedQueryContext scope(parent);
                    fn(active[i]);
                  });
      return;
    }
  }
  for (std::size_t shard : active) fn(shard);
}

namespace {

/// Reusable scatter-gather state for the serial (pool-less) path. All
/// arrays are flat and grouped by shard with a counting sort; capacity
/// reaches steady state after the first few batches, so the hot path
/// allocates nothing. thread_local because executor scan shards may
/// call ReconstructRegion concurrently on distinct threads.
struct SerialScatterScratch {
  std::vector<std::uint32_t> shard_of;   // per input item
  std::vector<std::size_t> offsets;      // per shard: group begin; +1 = end
  std::vector<std::size_t> cursor;       // per shard: next write slot
  std::vector<CellRef> local_cells;      // localized, input order
  std::vector<CellRef> grouped_cells;    // localized, grouped by shard
  std::vector<std::size_t> local_rows;   // localized rows, input order
  std::vector<std::size_t> grouped_rows; // localized rows, grouped
  std::vector<std::size_t> grouped_out;  // original positions, grouped
  std::vector<double> values;            // one shard's gathered cells
  Matrix region;                         // one shard's gathered region
};

SerialScatterScratch& SerialScratch() {
  thread_local SerialScatterScratch scratch;
  return scratch;
}

/// Below this many output cells a batch cannot amortize the fan-out
/// pool's wake-up (microseconds) plus the parallel path's per-call
/// scatter allocations: a few hundred cells reconstruct in ~2-3us,
/// so dispatching them to workers made S=2 serve at ~0.7x the single
/// store. Small batches take the allocation-free serial path instead
/// (identical results — shard outputs are disjoint either way).
constexpr std::size_t kMinCellsForFanOut = 8192;

}  // namespace

void ShardedStore::SerialReconstructCells(std::span<const CellRef> cells,
                                          std::span<double> out) const {
  const std::size_t shard_count = models_.size();
  // Serving from the in-memory shard models: the fused multi-model
  // loops reconstruct in one pass — per-cell model select, no grouping
  // copies, no per-shard calls — which is what keeps small batches at
  // single-store speed for S > 1. Large batches stay on the grouped
  // path below: its per-shard backend calls unlock SvddModel's
  // whole-table delta fold, which beats per-cell probing once the
  // batch is a fair fraction of the delta table. (The hit masks give
  // the exact distinct-shard count for S <= 64 and an aliased lower
  // bound beyond, which only feeds the fan-out metric.)
  if (backends_.empty() && cells.size() < kMinCellsForFanOut) {
    thread_local std::vector<const SvddModel*> model_ptrs;
    model_ptrs.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      model_ptrs[s] = &models_[s];
    }
    if (layout_.partition == ShardPartition::kRange) {
      // Owner selection fuses into the reconstruction itself: nothing
      // is precomputed per cell.
      const std::uint64_t hit = SvddModel::ReconstructCellsRange(
          model_ptrs, layout_.range_begin, cells, out);
      ChargeShardScatter(static_cast<std::size_t>(std::popcount(hit)));
      return;
    }
    SerialScatterScratch& scratch = SerialScratch();
    scratch.shard_of.resize(cells.size());
    scratch.local_cells.resize(cells.size());
    std::uint64_t hit = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto [shard, local] = layout_.Locate(cells[i].row);
      scratch.shard_of[i] = static_cast<std::uint32_t>(shard);
      scratch.local_cells[i] = CellRef{local, cells[i].col};
      hit |= std::uint64_t{1} << (shard & 63);
    }
    ChargeShardScatter(static_cast<std::size_t>(std::popcount(hit)));
    SvddModel::ReconstructCellsMulti(model_ptrs, scratch.shard_of,
                                     scratch.local_cells, out);
    return;
  }
  SerialScatterScratch& scratch = SerialScratch();
  scratch.shard_of.resize(cells.size());
  scratch.local_cells.resize(cells.size());
  scratch.offsets.assign(shard_count + 1, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto [shard, local] = layout_.Locate(cells[i].row);
    scratch.shard_of[i] = static_cast<std::uint32_t>(shard);
    scratch.local_cells[i] = CellRef{local, cells[i].col};
    ++scratch.offsets[scratch.shard_of[i] + 1];
  }
  std::size_t active = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (scratch.offsets[s + 1] != 0) ++active;
    scratch.offsets[s + 1] += scratch.offsets[s];
  }
  ChargeShardScatter(active);
  scratch.cursor.assign(scratch.offsets.begin(),
                        scratch.offsets.end() - 1);
  scratch.grouped_cells.resize(cells.size());
  scratch.grouped_out.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t pos = scratch.cursor[scratch.shard_of[i]]++;
    scratch.grouped_cells[pos] = scratch.local_cells[i];
    scratch.grouped_out[pos] = i;
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t begin = scratch.offsets[s];
    const std::size_t end = scratch.offsets[s + 1];
    if (begin == end) continue;
    const std::size_t count = end - begin;
    if (scratch.values.size() < count) scratch.values.resize(count);
    backend(s)->ReconstructCells(
        std::span<const CellRef>(scratch.grouped_cells.data() + begin, count),
        std::span<double>(scratch.values.data(), count));
    for (std::size_t i = 0; i < count; ++i) {
      out[scratch.grouped_out[begin + i]] = scratch.values[i];
    }
  }
}

void ShardedStore::SerialReconstructRegion(
    std::span<const std::size_t> row_ids,
    std::span<const std::size_t> col_ids, Matrix* out) const {
  // Every output row is fully overwritten below, so reuse the caller's
  // matrix when the shape already matches instead of reallocating.
  if (out->rows() != row_ids.size() || out->cols() != col_ids.size()) {
    *out = Matrix(row_ids.size(), col_ids.size());
  }
  const std::size_t shard_count = models_.size();
  SerialScatterScratch& scratch = SerialScratch();
  scratch.shard_of.resize(row_ids.size());
  scratch.local_rows.resize(row_ids.size());
  scratch.offsets.assign(shard_count + 1, 0);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    auto [shard, local] = layout_.Locate(row_ids[i]);
    scratch.shard_of[i] = static_cast<std::uint32_t>(shard);
    scratch.local_rows[i] = local;
    ++scratch.offsets[shard + 1];
  }
  std::size_t active = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (scratch.offsets[s + 1] != 0) ++active;
    scratch.offsets[s + 1] += scratch.offsets[s];
  }
  ChargeShardScatter(active);
  scratch.cursor.assign(scratch.offsets.begin(),
                        scratch.offsets.end() - 1);
  scratch.grouped_rows.resize(row_ids.size());
  scratch.grouped_out.resize(row_ids.size());
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    const std::size_t pos = scratch.cursor[scratch.shard_of[i]]++;
    scratch.grouped_rows[pos] = scratch.local_rows[i];
    scratch.grouped_out[pos] = i;
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t begin = scratch.offsets[s];
    const std::size_t end = scratch.offsets[s + 1];
    if (begin == end) continue;
    const std::size_t count = end - begin;
    backend(s)->ReconstructRegion(
        std::span<const std::size_t>(scratch.grouped_rows.data() + begin,
                                     count),
        col_ids, &scratch.region);
    for (std::size_t i = 0; i < count; ++i) {
      std::span<const double> src = scratch.region.Row(i);
      std::span<double> dst = out->Row(scratch.grouped_out[begin + i]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

double ShardedStore::ReconstructCell(std::size_t row, std::size_t col) const {
  auto [shard, local] = layout_.Locate(row);
  return backend(shard)->ReconstructCell(local, col);
}

void ShardedStore::ReconstructRow(std::size_t row,
                                  std::span<double> out) const {
  auto [shard, local] = layout_.Locate(row);
  backend(shard)->ReconstructRow(local, out);
}

void ShardedStore::ReconstructCells(std::span<const CellRef> cells,
                                    std::span<double> out) const {
  if (models_.size() == 1) {
    // One shard owns every row (local == global under both partition
    // rules), so skip the scatter copies: S=1 must serve at
    // single-store speed.
    ChargeShardScatter(1);
    backend(0)->ReconstructCells(cells, out);
    return;
  }
  if (fan_out_pool_ == nullptr || cells.size() < kMinCellsForFanOut) {
    // No pool means every shard runs on this thread anyway — and a
    // small batch is faster on this thread too; either way take the
    // allocation-free path so S>1 serves near single-store speed.
    SerialReconstructCells(cells, out);
    return;
  }
  // Scatter: deal cells to their shards, remembering output slots.
  std::vector<std::vector<CellRef>> shard_cells(models_.size());
  std::vector<std::vector<std::size_t>> shard_out(models_.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto [shard, local] = layout_.Locate(cells[i].row);
    shard_cells[shard].push_back(CellRef{local, cells[i].col});
    shard_out[shard].push_back(i);
  }
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < models_.size(); ++s) {
    if (!shard_cells[s].empty()) active.push_back(s);
  }
  ChargeShardScatter(active.size());
  // Gather: each shard reconstructs its batch and writes its own output
  // slots — disjoint writes, so parallel == serial bit for bit.
  std::vector<std::vector<double>> shard_values(models_.size());
  ForEachShard(active, [&](std::size_t s) {
    shard_values[s].resize(shard_cells[s].size());
    backend(s)->ReconstructCells(shard_cells[s],
                                 std::span<double>(shard_values[s]));
    for (std::size_t i = 0; i < shard_out[s].size(); ++i) {
      out[shard_out[s][i]] = shard_values[s][i];
    }
  });
}

void ShardedStore::ReconstructRegion(std::span<const std::size_t> row_ids,
                                     std::span<const std::size_t> col_ids,
                                     Matrix* out) const {
  if (models_.size() == 1) {
    // Same single-shard forward as ReconstructCells.
    ChargeShardScatter(1);
    backend(0)->ReconstructRegion(row_ids, col_ids, out);
    return;
  }
  if (fan_out_pool_ == nullptr ||
      row_ids.size() * col_ids.size() < kMinCellsForFanOut) {
    SerialReconstructRegion(row_ids, col_ids, out);
    return;
  }
  *out = Matrix(row_ids.size(), col_ids.size());
  std::vector<ShardSelection> selections = PartitionRows(row_ids);
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < selections.size(); ++s) {
    if (!selections[s].local_rows.empty()) active.push_back(s);
  }
  ChargeShardScatter(active.size());
  std::vector<Matrix> shard_regions(models_.size());
  ForEachShard(active, [&](std::size_t s) {
    const ShardSelection& sel = selections[s];
    backend(s)->ReconstructRegion(sel.local_rows, col_ids, &shard_regions[s]);
    for (std::size_t i = 0; i < sel.out_index.size(); ++i) {
      std::span<const double> src = shard_regions[s].Row(i);
      std::span<double> dst = out->Row(sel.out_index[i]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  });
}

std::uint64_t ShardedStore::CompressedBytes() const {
  std::uint64_t total = 0;
  for (const SvddModel& model : models_) total += model.CompressedBytes();
  return total;
}

Status ShardedStore::PatchCell(std::size_t row, std::size_t col,
                               double exact_value) {
  if (row >= rows() || col >= cols()) {
    return Status::InvalidArgument("PatchCell outside the matrix");
  }
  auto [shard, local] = layout_.Locate(row);
  return models_[shard].PatchCell(local, col, exact_value);
}

SvdModel::FoldInStats ShardedStore::FoldInRows(const Matrix& new_rows) {
  // Deal the appended rows exactly as AppendRows will grow the layout:
  // range sends everything to the last shard; hash continues the
  // round-robin from the current total, which appends to each shard's
  // dense local tail.
  std::vector<std::vector<std::size_t>> shard_rows(models_.size());
  for (std::size_t j = 0; j < new_rows.rows(); ++j) {
    const std::size_t global = layout_.total_rows + j;
    const std::size_t shard = layout_.partition == ShardPartition::kRange
                                  ? models_.size() - 1
                                  : global % layout_.shard_count;
    shard_rows[shard].push_back(j);
  }
  SvdModel::FoldInStats merged;
  for (std::size_t s = 0; s < models_.size(); ++s) {
    if (shard_rows[s].empty()) continue;
    Matrix slice(shard_rows[s].size(), new_rows.cols());
    for (std::size_t i = 0; i < shard_rows[s].size(); ++i) {
      std::span<const double> src = new_rows.Row(shard_rows[s][i]);
      std::copy(src.begin(), src.end(), slice.Row(i).begin());
    }
    SvdModel::FoldInStats stats = models_[s].FoldInRows(slice);
    merged.rows_added += stats.rows_added;
    merged.energy_total += stats.energy_total;
    merged.energy_captured += stats.energy_captured;
  }
  layout_.AppendRows(new_rows.rows());
  return merged;
}

void ShardedStore::AttachBackends(
    std::vector<const CompressedStore*> backends) {
  assert(backends.empty() || backends.size() == models_.size());
  backends_ = std::move(backends);
}

void ShardedStore::EnableParallelFanOut(std::size_t num_threads) {
  fan_out_pool_ =
      num_threads > 1 ? std::make_shared<ThreadPool>(num_threads) : nullptr;
}

// ---------------------------------------------------------------------------
// SplitSvddModel
// ---------------------------------------------------------------------------

StatusOr<ShardedStore> SplitSvddModel(const SvddModel& model,
                                      const ShardLayout& layout) {
  if (layout.total_rows != model.rows()) {
    return Status::InvalidArgument(
        "shard layout row count disagrees with the model");
  }
  const std::size_t num_shards = layout.shard_count;
  const std::size_t cols = model.cols();
  const std::size_t k = model.k();
  const SvdModel& svd = model.svd();

  // One pass over the delta table, re-keying each outlier to its shard's
  // local row; the layout's Locate is the single source of truth.
  std::vector<DeltaTable> shard_deltas(num_shards);
  for (DeltaTable& table : shard_deltas) {
    table.set_entry_bytes(model.deltas().entry_bytes());
  }
  model.deltas().ForEach([&](std::uint64_t key, double delta) {
    const std::size_t row = static_cast<std::size_t>(key / cols);
    const std::size_t col = static_cast<std::size_t>(key % cols);
    auto [shard, local] = layout.Locate(row);
    shard_deltas[shard].Put(DeltaTable::CellKey(local, col, cols), delta);
  });

  std::vector<SvddModel> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t shard_rows = layout.RowsIn(s);
    // Copy the already-quantization-snapped U rows bit for bit; V and
    // the eigenvalues are replicated (they are tiny next to U), and the
    // SvdModel constructor re-derives weighted_v deterministically.
    Matrix u(shard_rows, k);
    for (std::size_t r = 0; r < shard_rows; ++r) {
      std::span<const double> src = svd.u().Row(layout.GlobalOf(s, r));
      std::copy(src.begin(), src.end(), u.Row(r).begin());
    }
    SvdModel shard_svd(std::move(u), svd.singular_values(), svd.v());
    shard_svd.set_bytes_per_value(svd.bytes_per_value());
    shard_svd.MarkQuantScheme(svd.quant_scheme());

    std::optional<BloomFilter> bloom;
    if (model.has_bloom_filter()) {
      // Each shard fronts its own delta table; the filter only ever
      // short-cuts definite misses, so re-deriving it cannot change any
      // reconstructed value.
      BloomFilter filter(std::max<std::size_t>(shard_deltas[s].size(), 1));
      shard_deltas[s].ForEach(
          [&](std::uint64_t key, double) { filter.Add(key); });
      bloom = std::move(filter);
    }
    shards.emplace_back(std::move(shard_svd), std::move(shard_deltas[s]),
                        std::move(bloom));
  }
  return ShardedStore(std::move(shards), layout);
}

// ---------------------------------------------------------------------------
// BuildShardedStore
// ---------------------------------------------------------------------------

StatusOr<ShardedStore> BuildShardedStore(const Matrix& data,
                                         const ShardedBuildOptions& options,
                                         ShardedBuildDiagnostics* diagnostics) {
  TSC_ASSIGN_OR_RETURN(ShardLayout layout,
                       ShardLayout::Make(ShardPartition::kRange, data.rows(),
                                         options.shard_count));
  const std::size_t num_shards = layout.shard_count;
  if (!options.per_shard_quant.empty() && options.per_shard_quant.size() != 1 &&
      options.per_shard_quant.size() != num_shards) {
    return Status::InvalidArgument(
        "per_shard_quant must name one scheme, one per shard, or none");
  }

  // S independent serial 3-pass builds fanned out across the worker
  // pool: shard builds share nothing, so the models are bitwise
  // identical at any thread count and the build scales with
  // min(threads, S) where intra-pass chunking could not.
  std::vector<StatusOr<SvddModel>> built(
      num_shards, StatusOr<SvddModel>(Status::Internal("shard not built")));
  std::vector<SvddBuildDiagnostics> shard_diags(num_shards);
  std::vector<double> shard_seconds(num_shards, 0.0);

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1 && num_shards > 1) {
    pool = std::make_unique<ThreadPool>(
        std::min(options.num_threads, num_shards));
  }
  ParallelFor(pool.get(), num_shards, [&](std::size_t s) {
    const auto start = std::chrono::steady_clock::now();
    SvddBuildOptions shard_options = options.base;
    shard_options.num_threads = 1;  // parallelism lives ACROSS shards
    if (options.per_shard_quant.size() == 1) {
      shard_options.quant = options.per_shard_quant[0];
    } else if (options.per_shard_quant.size() == num_shards) {
      shard_options.quant = options.per_shard_quant[s];
    }
    MatrixSliceRowSource source(&data, layout.range_begin[s],
                                layout.RowsIn(s));
    built[s] = BuildSvddModel(&source, shard_options, &shard_diags[s]);
    shard_seconds[s] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  });

  std::vector<SvddModel> models;
  models.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!built[s].ok()) return built[s].status();
    models.push_back(std::move(built[s]).value());
  }
  if (diagnostics != nullptr) {
    diagnostics->shards = std::move(shard_diags);
    diagnostics->shard_seconds = std::move(shard_seconds);
  }
  return ShardedStore(std::move(models), std::move(layout));
}

// ---------------------------------------------------------------------------
// ShardedDiskBundle
// ---------------------------------------------------------------------------

std::vector<const CompressedStore*> ShardedDiskBundle::ViewPointers() const {
  std::vector<const CompressedStore*> pointers;
  pointers.reserve(views.size());
  for (const DiskBackedStoreView& view : views) pointers.push_back(&view);
  return pointers;
}

void ShardedDiskBundle::RemoveFiles() {
  for (const std::string& path : file_paths) std::remove(path.c_str());
  file_paths.clear();
}

StatusOr<ShardedDiskBundle> OpenShardedDiskBundle(
    const ShardedStore& store, const std::string& base_path,
    const DiskBackedOptions& options) {
  ShardedDiskBundle bundle;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".shard%zu", s);
    const std::string u_path = base_path + suffix + ".u";
    const std::string sidecar_path = base_path + suffix + ".sidecar";
    Status exported =
        ExportSvddToDisk(store.shard_model(s), u_path, sidecar_path);
    if (!exported.ok()) {
      bundle.RemoveFiles();
      return exported;
    }
    bundle.file_paths.push_back(u_path);
    bundle.file_paths.push_back(sidecar_path);
    StatusOr<DiskBackedStore> opened =
        DiskBackedStore::Open(u_path, sidecar_path, options);
    if (!opened.ok()) {
      bundle.RemoveFiles();
      return opened.status();
    }
    // deque never relocates elements, so the view's pointer stays valid
    // as later shards are appended.
    bundle.stores.push_back(std::move(opened).value());
    bundle.views.emplace_back(&bundle.stores.back());
  }
  return bundle;
}

}  // namespace tsc
