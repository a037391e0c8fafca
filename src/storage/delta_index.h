#ifndef TSC_STORAGE_DELTA_INDEX_H_
#define TSC_STORAGE_DELTA_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "storage/serializer.h"
#include "util/id_range.h"
#include "util/status.h"

namespace tsc {

/// One stored delta in its packed on-disk form: the cell's row-major
/// rank (row * M + col) and the value added to the SVD reconstruction.
struct DeltaEntry {
  std::uint64_t key = 0;
  double delta = 0.0;
};

/// The SVDD delta side (Section 4.2) as one immutable index, built from
/// the packed (key, delta) pairs, which are stored sorted by (row, col):
///
///   row CSR      u64 row offsets, then u32 columns and f64 deltas. A
///                cell is a binary search inside its row's run; a row,
///                region or cell batch walks only the selected rows' runs.
///   checkpoints  col_prefix[s][j], the sum of column j's deltas in rows
///                [0, min(s * kCheckpointRows, rows)). A run of at
///                most kCheckpointRows rows is folded by walking its
///                stretch of the row CSR; a longer run is the difference
///                of two prefixes, each one checkpoint row plus the CSR
///                rows between its end and the nearer checkpoint, so at
///                most kCheckpointRows / 2 rows a side whatever its height.
///
/// A patch does not touch an index: WithPatch() returns a new one that
/// shares the base arrays and adds the patch to a small sorted overlay;
/// once the overlay passes kMaxOverlay entries it is merged into a new
/// base. Every fold reads base and overlay as one set, the overlay value
/// winning for a cell held by both, so the reconstruction of a patched
/// cell is its SVD value plus exactly the patched delta.
///
/// Accounting: `delta.lookups` (and the request's `delta_probes`) counts
/// one per cell searched and one per CSR row a fold visits; the column
/// sums also count one per checkpoint row read. `delta.hits` counts the
/// rows that held a delta the fold kept (a cell that was found) and every
/// checkpoint row read. The ForEach* visits are not counted.
class DeltaIndex {
 public:
  /// On-disk bytes of a packed (u64 key, f64 delta) entry.
  static constexpr std::uint64_t kPackedEntryBytes = 8 + 8;
  /// Overlay patches kept beside the base before a merge.
  static constexpr std::size_t kMaxOverlay = 256;
  /// Row spacing of the column-sum checkpoints.
  static constexpr std::size_t kCheckpointRows = 512;

  /// An empty 0 x 0 index.
  DeltaIndex();

  static std::uint64_t CellKey(std::size_t row, std::size_t col,
                               std::size_t num_cols) {
    return static_cast<std::uint64_t>(row) * num_cols + col;
  }

  /// Builds the index of a rows x cols matrix from entries sorted
  /// strictly ascending by key. Fails on an unsorted, duplicated or
  /// out-of-range key, a non-finite delta, or dimensions past u32.
  static StatusOr<DeltaIndex> Build(std::size_t rows, std::size_t cols,
                                    std::span<const DeltaEntry> entries);

  /// The delta section of the model file: u64 entry size (always
  /// kPackedEntryBytes), u64 count, count x (u64 key, f64 delta) in key
  /// order, then a u32 Bloom-filter flag that is always written 0.
  Status Serialize(BinaryWriter* writer) const;
  /// Reads a delta section for a rows x cols model, with Build's checks.
  /// The entry size must be 16, or 12 in files of the retired b=4 mode,
  /// which stored 16-byte entries all the same; either way each entry is
  /// charged kPackedEntryBytes. A Bloom-filter section that older files
  /// carry after the flag is read and dropped.
  static StatusOr<DeltaIndex> Deserialize(BinaryReader* reader,
                                          std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Deltas held, base and overlay together.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes of the packed (key, delta) pairs: the space the paper charges
  /// the deltas. The resident structures below are uncharged.
  std::uint64_t PackedBytes() const { return size_ * kPackedEntryBytes; }
  /// Resident bytes of the row CSR plus the overlay.
  std::uint64_t RowIndexBytes() const;
  /// Resident bytes of the column-sum checkpoint table.
  std::uint64_t CheckpointBytes() const;

  /// The delta stored for cell (row, col), or nullopt.
  std::optional<double> Find(std::size_t row, std::size_t col) const;

  /// out[c] += delta for every delta of `row`; `out` spans all columns.
  void AddToRow(std::size_t row, std::span<double> out) const;

  /// (*out)(r, c) += delta of cell (row_ids[r], col_ids[c]). Ids may be
  /// unsorted or repeated: every copy gets its delta. `out` is already
  /// row_ids.size() x col_ids.size().
  void AddToRegion(std::span<const std::size_t> row_ids,
                   std::span<const std::size_t> col_ids, Matrix* out) const;

  /// Sum of the deltas inside (row runs) x (column runs).
  double RegionSum(std::span<const IdRange> row_ranges,
                   std::span<const IdRange> col_ranges) const;

  /// out[g] += the deltas of the g-th selected column (counting through
  /// the column runs in order) inside the row runs.
  void AddColumnSums(std::span<const IdRange> row_ranges,
                     std::span<const IdRange> col_ranges,
                     std::span<double> out) const;

  /// out[g] += the deltas of the g-th selected row (counting through the
  /// row runs in order) inside the column runs.
  void AddRowSums(std::span<const IdRange> row_ranges,
                  std::span<const IdRange> col_ranges,
                  std::span<double> out) const;

  /// Visits every delta of `row` as fn(col, delta), ascending by column.
  /// Not counted as a lookup.
  template <typename Fn>
  void ForEachInRow(std::size_t row, Fn&& fn) const;

  /// Visits every delta inside `rows` x (column runs) as fn(c, delta),
  /// c the column's position in the selection (counting through the
  /// column runs in order), ascending by row, then column. Without
  /// overlay patches this is one walk over the run's stretch of the row
  /// CSR that tracks no row. Not counted as a lookup.
  template <typename Fn>
  void ForEachInRegion(IdRange rows, std::span<const IdRange> col_ranges,
                       Fn&& fn) const;

  /// Visits every delta as fn(row, col, delta) in key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t row = 0; row < rows_; ++row) {
      ForEachInRow(row, [&](std::size_t col, double delta) {
        fn(row, col, delta);
      });
    }
  }

  /// This index with cell (row, col) set to `delta` (row < rows(),
  /// col < cols()).
  DeltaIndex WithPatch(std::size_t row, std::size_t col, double delta) const;

  /// This index grown to `rows` >= rows() rows; the new rows hold no
  /// deltas.
  DeltaIndex WithRows(std::size_t rows) const;

 private:
  /// The immutable arrays shared by every snapshot derived from them.
  struct Base {
    std::size_t rows = 0;
    std::vector<std::uint64_t> row_offsets{0};  ///< rows + 1
    std::vector<std::uint32_t> row_cols;        ///< by (row, col)
    std::vector<double> row_deltas;
    /// col_prefix[s * cols + j] for s in [0, ceil(rows / kCheckpointRows)].
    std::vector<double> col_prefix;
  };

  /// One overlay cell: its delta, and the base delta it shadows (0 when
  /// the base holds none) so sums can swap one for the other.
  struct Patch {
    std::uint64_t key = 0;
    double delta = 0.0;
    double shadowed = 0.0;
  };

  /// Adds one fold's searches to the process counters, beside the
  /// charge to the request in flight (query_context.h).
  static void CountLookups(std::uint64_t lookups, std::uint64_t hits);
  /// Build's body over a stream: `next` yields `count` entries.
  static StatusOr<DeltaIndex> Assemble(
      std::size_t rows, std::size_t cols, std::uint64_t count,
      const std::function<StatusOr<DeltaEntry>()>& next);
  /// This index with the overlay merged into a new base.
  DeltaIndex Merged() const;

  /// The base run of `row` (empty past the base's rows).
  std::span<const std::uint32_t> BaseCols(std::size_t row) const;
  std::span<const double> BaseDeltas(std::size_t row) const;
  /// Overlay patches of `row`, ascending by column.
  std::span<const Patch> RowPatches(std::size_t row) const;
  /// position[col - col_ranges.front().lo]: the column's place in the
  /// selection (counting through the runs in order), or kUnselected.
  static constexpr std::size_t kUnselected = ~std::size_t{0};
  static std::vector<std::size_t> SelectionPositions(
      std::span<const IdRange> col_ranges);

  std::shared_ptr<const Base> base_;
  std::vector<Patch> overlay_;  ///< sorted by key
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t size_ = 0;
};

template <typename Fn>
void DeltaIndex::ForEachInRow(std::size_t row, Fn&& fn) const {
  const std::span<const std::uint32_t> cols = BaseCols(row);
  const std::span<const double> deltas = BaseDeltas(row);
  const std::span<const Patch> patches = RowPatches(row);
  std::size_t i = 0;
  for (const Patch& patch : patches) {
    const std::size_t col = static_cast<std::size_t>(patch.key % cols_);
    for (; i < cols.size() && cols[i] < col; ++i) fn(cols[i], deltas[i]);
    if (i < cols.size() && cols[i] == col) ++i;  // shadowed by the patch
    fn(col, patch.delta);
  }
  for (; i < cols.size(); ++i) fn(cols[i], deltas[i]);
}

template <typename Fn>
void DeltaIndex::ForEachInRegion(IdRange rows,
                                 std::span<const IdRange> col_ranges,
                                 Fn&& fn) const {
  if (rows.lo > rows.hi || col_ranges.empty()) return;
  const std::size_t first_col = col_ranges.front().lo;
  const std::vector<std::size_t> position = SelectionPositions(col_ranges);
  // Visits one delta if its column is selected.
  const auto visit = [&](std::size_t col, double delta) {
    const std::size_t offset = col - first_col;  // wraps below first_col
    if (offset >= position.size() || position[offset] == kUnselected) return;
    fn(position[offset], delta);
  };
  if (!overlay_.empty()) {
    for (std::size_t row = rows.lo; row <= rows.hi; ++row) {
      ForEachInRow(row, visit);
    }
    return;
  }
  // The base alone: the run's rows hold one contiguous stretch of the
  // row CSR, walked straight through.
  if (rows.lo >= base_->rows) return;
  const std::size_t hi = std::min(rows.hi, base_->rows - 1);
  const std::uint64_t end = base_->row_offsets[hi + 1];
  for (std::uint64_t e = base_->row_offsets[rows.lo]; e < end; ++e) {
    visit(base_->row_cols[e], base_->row_deltas[e]);
  }
}

/// The current DeltaIndex of a mutable model, published by an atomic
/// shared_ptr swap. A reader Load()s a snapshot and answers from it
/// while a writer publishes the next one, so every answer is the answer
/// of one published snapshot. Writers serialize on an internal mutex.
/// A copy starts from the source's current snapshot.
///
/// The swap uses the std::atomic_load/atomic_store overloads for
/// shared_ptr: libstdc++ backs them with a mutex pool that
/// ThreadSanitizer can see, which its std::atomic<std::shared_ptr> lock
/// bit is not.
class PublishedDeltaIndex {
 public:
  PublishedDeltaIndex() : PublishedDeltaIndex(DeltaIndex()) {}
  explicit PublishedDeltaIndex(DeltaIndex index)
      : current_(std::make_shared<const DeltaIndex>(std::move(index))) {}
  PublishedDeltaIndex(const PublishedDeltaIndex& other)
      : current_(other.Load()) {}
  PublishedDeltaIndex& operator=(const PublishedDeltaIndex& other) {
    if (this != &other) {
      const std::lock_guard<std::mutex> lock(writer_);
      std::atomic_store_explicit(&current_, other.Load(),
                                 std::memory_order_release);
    }
    return *this;
  }

  std::shared_ptr<const DeltaIndex> Load() const {
    return std::atomic_load_explicit(&current_, std::memory_order_acquire);
  }

  /// Publishes next(current snapshot) as the new snapshot.
  template <typename Fn>
  void Update(Fn&& next) {
    const std::lock_guard<std::mutex> lock(writer_);
    const std::shared_ptr<const DeltaIndex> current = Load();
    std::atomic_store_explicit(
        &current_, std::make_shared<const DeltaIndex>(next(*current)),
        std::memory_order_release);
  }

 private:
  std::shared_ptr<const DeltaIndex> current_;
  std::mutex writer_;
};

}  // namespace tsc

#endif  // TSC_STORAGE_DELTA_INDEX_H_
