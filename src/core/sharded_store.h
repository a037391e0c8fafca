#ifndef TSC_CORE_SHARDED_STORE_H_
#define TSC_CORE_SHARDED_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compressed_store.h"
#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "storage/quant.h"
#include "util/status.h"

namespace tsc {

class ThreadPool;

/// How global rows are dealt to shards.
enum class ShardPartition : std::uint32_t {
  kRange = 0,  ///< balanced contiguous slices (default; build-friendly)
  kHash = 1,   ///< shard = row % S (round-robin; spreads hot prefixes)
};

const char* ShardPartitionName(ShardPartition partition);

/// The invertible global-row <-> (shard, local-row) mapping every
/// sharded component shares. Range partitioning deals balanced
/// contiguous slices (the first `total_rows % S` shards get one extra
/// row); hash partitioning deals round-robin. Both are order-preserving
/// within a shard, so per-shard selections stay sorted and coalescible.
struct ShardLayout {
  ShardPartition partition = ShardPartition::kRange;
  std::size_t total_rows = 0;
  std::size_t shard_count = 1;
  /// Range partitioning: shard s owns [range_begin[s], range_begin[s+1])
  /// (size shard_count + 1; empty for hash). Kept explicit — not
  /// recomputed from total_rows — so appended rows can grow the last
  /// shard without remapping any existing row.
  std::vector<std::size_t> range_begin;

  /// Balanced layout: validates 1 <= shard_count <= total_rows (every
  /// shard must own at least one row so each gets a non-degenerate
  /// model). Range shards get contiguous slices, the first
  /// total_rows % S of them one extra row.
  static StatusOr<ShardLayout> Make(ShardPartition partition,
                                    std::size_t total_rows,
                                    std::size_t shard_count);
  /// Range layout with explicit per-shard row counts (manifest loads).
  static StatusOr<ShardLayout> MakeRange(
      const std::vector<std::size_t>& row_counts);

  std::size_t RowsIn(std::size_t shard) const;

  std::size_t ShardOf(std::size_t global_row) const;
  std::size_t LocalOf(std::size_t global_row) const {
    return Locate(global_row).second;
  }
  /// (shard, local) of a global row.
  std::pair<std::size_t, std::size_t> Locate(std::size_t global_row) const;
  std::size_t GlobalOf(std::size_t shard, std::size_t local_row) const;

  /// Grows the layout for `count` appended global rows: hash keeps the
  /// modulo rule (locals stay dense); range grows the last shard, so no
  /// existing row moves.
  void AppendRows(std::size_t count);

  friend bool operator==(const ShardLayout&, const ShardLayout&) = default;
};

/// One shard's line in the TSCSHARD1 manifest.
struct ShardManifestEntry {
  std::string path;  ///< shard model file, relative to the manifest
  std::size_t row_count = 0;
  QuantScheme quant = QuantScheme::kF64;
  std::size_t k = 0;
  std::uint64_t delta_count = 0;
};

/// The TSCSHARD1 manifest: partitioning, shape, and one entry per shard
/// model file (docs/file_formats.md). The manifest is the unit `tsctool`
/// loads; shard files are plain SVDD model files.
struct ShardManifest {
  ShardPartition partition = ShardPartition::kRange;
  std::size_t total_rows = 0;
  std::size_t total_cols = 0;
  std::vector<ShardManifestEntry> shards;

  /// Layout implied by the manifest: range partitions reconstruct the
  /// boundaries from the per-shard row counts (which may be unbalanced
  /// after fold-ins); hash partitions validate the counts against the
  /// modulo rule.
  StatusOr<ShardLayout> Layout() const;

  Status SaveToFile(const std::string& path) const;
  static StatusOr<ShardManifest> LoadFromFile(const std::string& path);
  /// Cheap magic sniff, so model loaders can dispatch without parsing.
  static bool IsManifestFile(const std::string& path);
};

/// S independent SVDD stores serving one logical N x M matrix: each
/// shard owns a row partition with its own U store, delta table, Bloom
/// filter and quant scheme (heterogeneous schemes are allowed — hot
/// shards can stay f32 while cold shards pack int8). Implements
/// CompressedStore, so the executor's batched scan, the benches and the
/// server all serve it transparently; batched calls fan out per shard
/// and write disjoint output slots, which keeps results bit-identical
/// to a serial loop at any thread count.
class ShardedStore : public CompressedStore {
 public:
  ShardedStore(std::vector<SvddModel> models, ShardLayout layout);

  /// Loads every shard model named by a TSCSHARD1 manifest (paths are
  /// resolved relative to the manifest's directory).
  static StatusOr<ShardedStore> LoadFromManifest(
      const std::string& manifest_path);

  /// Writes the manifest to `manifest_path` and each shard model to
  /// `<manifest_path>.shard<i>`.
  Status SaveToFiles(const std::string& manifest_path) const;

  std::size_t rows() const override { return layout_.total_rows; }
  std::size_t cols() const override;
  std::size_t shard_count() const { return models_.size(); }
  const ShardLayout& layout() const { return layout_; }

  const SvddModel& shard_model(std::size_t shard) const {
    return models_[shard];
  }
  SvddModel& mutable_shard_model(std::size_t shard) { return models_[shard]; }

  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;
  void ReconstructCells(std::span<const CellRef> cells,
                        std::span<double> out) const override;
  void ReconstructRegion(std::span<const std::size_t> row_ids,
                         std::span<const std::size_t> col_ids,
                         Matrix* out) const override;

  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return "svdd-sharded"; }

  /// Routes a point update to the owning shard's model (and through it
  /// to that shard's delta listeners / aggregate hierarchy).
  Status PatchCell(std::size_t row, std::size_t col, double exact_value);

  /// Same subspace fidelity report as SvddModel::FoldInRows. Appended
  /// rows are dealt by the layout's partition rule, so the layout grows
  /// consistently with Locate().
  SvdModel::FoldInStats FoldInRows(const Matrix& new_rows);

  /// Replaces the per-shard serving backends (e.g. DiskBackedStoreView
  /// per shard). Must match shard_count(); pass {} to serve from the
  /// in-memory models again. Views must outlive the store.
  void AttachBackends(std::vector<const CompressedStore*> backends);

  /// The store a shard currently serves from: the attached backend, or
  /// the in-memory model.
  const CompressedStore* backend(std::size_t shard) const {
    return backends_.empty() ? static_cast<const CompressedStore*>(
                                   &models_[shard])
                             : backends_[shard];
  }

  /// Fans batched reconstructions out across shards on an internal pool
  /// (0/1 disables). Overlapping calls — e.g. from the executor's scan
  /// shards — fall back to the serial loop instead of contending;
  /// results are identical either way because every shard writes its
  /// own output slots.
  void EnableParallelFanOut(std::size_t num_threads);

 private:
  /// Per-shard slices of a batched selection: local ids plus the output
  /// positions they came from.
  struct ShardSelection {
    std::vector<std::size_t> local_rows;
    std::vector<std::size_t> out_index;
  };
  std::vector<ShardSelection> PartitionRows(
      std::span<const std::size_t> row_ids) const;

  /// Runs `fn(shard)` for every listed shard, on the fan-out pool when
  /// it is free, serially otherwise.
  void ForEachShard(const std::vector<std::size_t>& active,
                    const std::function<void(std::size_t)>& fn) const;

  /// Allocation-free scatter-gather used when no fan-out pool is
  /// attached: one thread-local counting-sort scratch groups the batch
  /// by shard and one value/region buffer is reused across shards.
  /// Bit-identical to the pooled path (same grouping order, same
  /// backend calls); exists because per-call vector-of-vector scatter
  /// state cost ~2x QPS on the single-threaded serving path (BENCH_9).
  void SerialReconstructCells(std::span<const CellRef> cells,
                              std::span<double> out) const;
  void SerialReconstructRegion(std::span<const std::size_t> row_ids,
                               std::span<const std::size_t> col_ids,
                               Matrix* out) const;

  std::vector<SvddModel> models_;
  ShardLayout layout_;
  std::vector<const CompressedStore*> backends_;
  std::shared_ptr<ThreadPool> fan_out_pool_;
  /// Heap-held so the store stays movable (StatusOr factories).
  std::shared_ptr<std::mutex> fan_out_mutex_ = std::make_shared<std::mutex>();
};

/// Partitions an existing model's rows into per-shard models that
/// reconstruct every cell bit-identically: U rows are copied (already
/// quantization-snapped), V and the eigenvalues are replicated, deltas
/// are re-keyed to shard-local rows, and each shard rebuilds its own
/// Bloom filter. This is what `tsctool reshard` runs, and what makes
/// the scatter-gather determinism contract testable against the
/// unsharded store (DESIGN.md §15).
StatusOr<ShardedStore> SplitSvddModel(const SvddModel& model,
                                      const ShardLayout& layout);

/// Options for the per-shard parallel build: each shard runs its own
/// independent 3-pass SVDD build (own k_opt, own delta budget, own
/// error accounting) over its row slice.
struct ShardedBuildOptions {
  /// Per-shard build options; `quant` is overridden by `per_shard_quant`
  /// when given, and `num_threads` is ignored (see `num_threads` below).
  SvddBuildOptions base;
  std::size_t shard_count = 1;
  /// Heterogeneous quantization: one scheme per shard, or one scheme
  /// for all, or empty to use `base.quant` everywhere.
  std::vector<QuantScheme> per_shard_quant;
  /// Worker threads ACROSS shards — shard builds are independent and
  /// each internally serial, so S shards build concurrently and the
  /// result is bitwise-identical for any thread count.
  std::size_t num_threads = 1;
};

struct ShardedBuildDiagnostics {
  std::vector<SvddBuildDiagnostics> shards;
  std::vector<double> shard_seconds;  ///< per-shard build wall clock
};

/// Builds a range-partitioned ShardedStore from an in-memory dataset:
/// S independent 3-pass builds, fanned out across
/// `options.num_threads` workers.
StatusOr<ShardedStore> BuildShardedStore(
    const Matrix& data, const ShardedBuildOptions& options,
    ShardedBuildDiagnostics* diagnostics = nullptr);

/// Per-shard disk serving: every shard exported to its own two-file
/// layout and opened behind its own BlockCache set. Attach the views
/// with ShardedStore::AttachBackends to serve from disk.
struct ShardedDiskBundle {
  std::deque<DiskBackedStore> stores;
  std::deque<DiskBackedStoreView> views;
  std::vector<std::string> file_paths;  ///< everything RemoveFiles deletes

  std::vector<const CompressedStore*> ViewPointers() const;
  /// Deletes the exported files (call after the store detaches).
  void RemoveFiles();
};

/// Exports every shard of `store` to `<base_path>.shard<i>.u` /
/// `.sidecar` and opens them with `options` (size the cache budget per
/// shard before calling — e.g. total_blocks / shard_count).
StatusOr<ShardedDiskBundle> OpenShardedDiskBundle(
    const ShardedStore& store, const std::string& base_path,
    const DiskBackedOptions& options);

}  // namespace tsc

#endif  // TSC_CORE_SHARDED_STORE_H_
