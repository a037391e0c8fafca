#ifndef TSC_STORAGE_DELTA_TABLE_H_
#define TSC_STORAGE_DELTA_TABLE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "storage/serializer.h"
#include "util/status.h"

namespace tsc {

/// Hash table from cell key to outlier delta, exactly the SVDD side
/// structure of Section 4.2: the key is the cell's row-major rank
/// (row * M + column) and the value is the difference between the true
/// value and the plain-SVD reconstruction.
///
/// Open addressing with linear probing over a power-of-two table; probe
/// counts are tracked so the Bloom-filter ablation can report the probes
/// a front filter saves. Models and serving fold their deltas through
/// DeltaIndex (storage/delta_index.h); this table and BloomFilter remain
/// as bench/ablation_svdd's reproduction of the paper's layout.
class DeltaTable {
 public:
  /// `expected_entries` pre-sizes the table (load factor <= 0.7).
  explicit DeltaTable(std::size_t expected_entries = 0);

  // Copyable and movable; spelled out because the atomic probe counter
  // deletes the defaults. The counter value travels with the table.
  DeltaTable(const DeltaTable& other);
  DeltaTable& operator=(const DeltaTable& other);
  DeltaTable(DeltaTable&& other) noexcept;
  DeltaTable& operator=(DeltaTable&& other) noexcept;

  static std::uint64_t CellKey(std::size_t row, std::size_t col,
                               std::size_t num_cols) {
    return static_cast<std::uint64_t>(row) * num_cols + col;
  }

  /// Inserts or overwrites the delta for `key`.
  void Put(std::uint64_t key, double delta);

  /// Delta for `key`, or nullopt when the cell is not an outlier.
  std::optional<double> Get(std::uint64_t key) const;

  bool Contains(std::uint64_t key) const { return Get(key).has_value(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Total slots inspected by Get() so far (the Bloom ablation metric).
  /// Like the count itself, resetting is a statistics operation and does
  /// not mutate logical state, hence const. The counter is a relaxed
  /// atomic so concurrent read-only queries through Get() stay data-race
  /// free; Put() remains single-writer (build/patch time only).
  std::uint64_t probe_count() const {
    return probe_count_.load(std::memory_order_relaxed);
  }
  void ResetProbeCount() const {
    probe_count_.store(0, std::memory_order_relaxed);
  }

  /// Bytes this table would occupy on disk if stored as packed
  /// (key, delta) pairs; this is the "O(b) bytes per delta" accounting the
  /// paper uses for the SVDD space budget. The per-entry cost is an
  /// 8-byte key + 8-byte double, or the entry size a deserialized table's
  /// section states.
  std::uint64_t PackedBytes() const { return size_ * entry_bytes_; }
  static constexpr std::uint64_t kPackedEntryBytes = 8 + 8;
  std::uint64_t entry_bytes() const { return entry_bytes_; }

  /// Visits every (key, delta) pair in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      if (b.occupied) fn(b.key, b.delta);
    }
  }

  Status Serialize(BinaryWriter* writer) const;
  static StatusOr<DeltaTable> Deserialize(BinaryReader* reader);

 private:
  struct Bucket {
    std::uint64_t key = 0;
    double delta = 0.0;
    bool occupied = false;
  };

  static std::uint64_t HashKey(std::uint64_t key);
  void Grow();
  std::size_t Mask() const { return buckets_.size() - 1; }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::uint64_t entry_bytes_ = kPackedEntryBytes;
  mutable std::atomic<std::uint64_t> probe_count_{0};
};

}  // namespace tsc

#endif  // TSC_STORAGE_DELTA_TABLE_H_
