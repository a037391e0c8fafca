#include "storage/delta_index.h"

#include <cmath>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "util/logging.h"

namespace tsc {
namespace {

constexpr std::uint64_t kMaxDimension =
    std::numeric_limits<std::uint32_t>::max();

/// Reads and drops the Bloom-filter section that older files carry
/// after the delta entries, in bounded chunks so a hostile word count
/// cannot force a large allocation.
Status SkipBloomSection(BinaryReader* reader) {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t bit_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t hash_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t entry_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t word_count, reader->ReadU64());
  (void)entry_count;
  if (word_count > (1ULL << 32) || hash_count == 0 || hash_count > 64 ||
      bit_count == 0 || (bit_count + 63) / 64 != word_count) {
    return Status::IoError("corrupt bloom filter header");
  }
  std::vector<std::uint64_t> chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(word_count, 8192)));
  for (std::uint64_t left = word_count; left > 0;) {
    const std::uint64_t words = std::min<std::uint64_t>(left, chunk.size());
    TSC_RETURN_IF_ERROR(reader->ReadBytes(
        chunk.data(), static_cast<std::size_t>(words) * sizeof(std::uint64_t)));
    left -= words;
  }
  return Status::Ok();
}

}  // namespace

DeltaIndex::DeltaIndex() : base_(std::make_shared<const Base>()) {}

void DeltaIndex::CountLookups(std::uint64_t lookups, std::uint64_t hits) {
  static obs::Counter& lookup_counter =
      obs::MetricRegistry::Default().GetCounter("delta.lookups");
  static obs::Counter& hit_counter =
      obs::MetricRegistry::Default().GetCounter("delta.hits");
  lookup_counter.Add(lookups);
  obs::ChargeDeltaProbes(lookups);
  hit_counter.Add(hits);
}

StatusOr<DeltaIndex> DeltaIndex::Build(std::size_t rows, std::size_t cols,
                                       std::span<const DeltaEntry> entries) {
  std::size_t next = 0;
  return Assemble(rows, cols, entries.size(),
                  [&]() -> StatusOr<DeltaEntry> { return entries[next++]; });
}

StatusOr<DeltaIndex> DeltaIndex::Assemble(
    std::size_t rows, std::size_t cols, std::uint64_t count,
    const std::function<StatusOr<DeltaEntry>()>& next) {
  if (rows > kMaxDimension || cols > kMaxDimension) {
    return Status::InvalidArgument("delta index dimensions exceed u32");
  }
  const std::uint64_t cells = static_cast<std::uint64_t>(rows) * cols;
  if (count > cells) return Status::InvalidArgument("more deltas than cells");

  auto base = std::make_shared<Base>();
  base->rows = rows;
  base->row_offsets.assign(rows + 1, 0);
  // Reserve a bounded prefix only: the count of a corrupt file must not
  // size an allocation before its entries have been read.
  const std::size_t reserve =
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 1u << 20));
  base->row_cols.reserve(reserve);
  base->row_deltas.reserve(reserve);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    TSC_ASSIGN_OR_RETURN(const DeltaEntry entry, next());
    if (entry.key >= cells) {
      return Status::InvalidArgument("delta key out of range");
    }
    if (i > 0 && entry.key <= previous) {
      return Status::InvalidArgument("delta keys not strictly ascending");
    }
    if (!std::isfinite(entry.delta)) {
      return Status::InvalidArgument("non-finite delta");
    }
    previous = entry.key;
    base->row_cols.push_back(static_cast<std::uint32_t>(entry.key % cols));
    base->row_deltas.push_back(entry.delta);
    ++base->row_offsets[static_cast<std::size_t>(entry.key / cols) + 1];
  }
  for (std::size_t row = 0; row < rows; ++row) {
    base->row_offsets[row + 1] += base->row_offsets[row];
  }

  // Column-sum checkpoints: each row of the table is the previous one
  // plus the next kCheckpointRows rows of the CSR.
  const std::size_t checkpoints =
      (rows + kCheckpointRows - 1) / kCheckpointRows;
  base->col_prefix.assign((checkpoints + 1) * cols, 0.0);
  for (std::size_t s = 1; s <= checkpoints; ++s) {
    double* prefix = base->col_prefix.data() + s * cols;
    std::copy_n(prefix - cols, cols, prefix);
    const std::size_t end = std::min(s * kCheckpointRows, rows);
    for (std::uint64_t p = base->row_offsets[(s - 1) * kCheckpointRows];
         p < base->row_offsets[end]; ++p) {
      prefix[base->row_cols[p]] += base->row_deltas[p];
    }
  }
  const std::size_t total = base->row_cols.size();

  DeltaIndex index;
  index.base_ = std::move(base);
  index.rows_ = rows;
  index.cols_ = cols;
  index.size_ = total;
  return index;
}

Status DeltaIndex::Serialize(BinaryWriter* writer) const {
  TSC_RETURN_IF_ERROR(writer->WriteU64(kPackedEntryBytes));
  TSC_RETURN_IF_ERROR(writer->WriteU64(size_));
  Status status = Status::Ok();
  ForEach([&](std::size_t row, std::size_t col, double delta) {
    if (!status.ok()) return;
    status = writer->WriteU64(CellKey(row, col, cols_));
    if (status.ok()) status = writer->WriteDouble(delta);
  });
  TSC_RETURN_IF_ERROR(status);
  return writer->WriteU32(0);  // no Bloom filter follows
}

StatusOr<DeltaIndex> DeltaIndex::Deserialize(BinaryReader* reader,
                                             std::size_t rows,
                                             std::size_t cols) {
  // The b=4 mode wrote 12 here while storing 16-byte entries like every
  // other file.
  constexpr std::uint64_t kLegacyB4EntryBytes = 8 + 4;
  TSC_ASSIGN_OR_RETURN(const std::uint64_t entry_bytes, reader->ReadU64());
  if (entry_bytes != kPackedEntryBytes && entry_bytes != kLegacyB4EntryBytes) {
    return Status::IoError("corrupt delta section: bad entry size");
  }
  TSC_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  StatusOr<DeltaIndex> index = Assemble(
      rows, cols, count, [reader]() -> StatusOr<DeltaEntry> {
        DeltaEntry entry;
        TSC_ASSIGN_OR_RETURN(entry.key, reader->ReadU64());
        TSC_ASSIGN_OR_RETURN(entry.delta, reader->ReadDouble());
        return entry;
      });
  if (!index.ok()) {
    return Status::IoError("corrupt delta section: " +
                           index.status().message());
  }
  TSC_ASSIGN_OR_RETURN(const std::uint32_t has_bloom, reader->ReadU32());
  if (has_bloom > 1) return Status::IoError("corrupt bloom filter flag");
  if (has_bloom == 1) TSC_RETURN_IF_ERROR(SkipBloomSection(reader));
  return index;
}

std::uint64_t DeltaIndex::RowIndexBytes() const {
  return base_->row_offsets.size() * sizeof(std::uint64_t) +
         base_->row_cols.size() * sizeof(std::uint32_t) +
         base_->row_deltas.size() * sizeof(double) +
         overlay_.size() * sizeof(Patch);
}

std::uint64_t DeltaIndex::CheckpointBytes() const {
  return base_->col_prefix.size() * sizeof(double);
}

std::span<const std::uint32_t> DeltaIndex::BaseCols(std::size_t row) const {
  if (row >= base_->rows) return {};
  const std::uint64_t begin = base_->row_offsets[row];
  const std::uint64_t end = base_->row_offsets[row + 1];
  return {base_->row_cols.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

std::span<const double> DeltaIndex::BaseDeltas(std::size_t row) const {
  if (row >= base_->rows) return {};
  const std::uint64_t begin = base_->row_offsets[row];
  const std::uint64_t end = base_->row_offsets[row + 1];
  return {base_->row_deltas.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

std::span<const DeltaIndex::Patch> DeltaIndex::RowPatches(
    std::size_t row) const {
  if (overlay_.empty()) return {};
  const auto by_key = [](const Patch& patch, std::uint64_t key) {
    return patch.key < key;
  };
  const auto first = std::lower_bound(overlay_.begin(), overlay_.end(),
                                      CellKey(row, 0, cols_), by_key);
  const auto last = std::lower_bound(first, overlay_.end(),
                                     CellKey(row + 1, 0, cols_), by_key);
  return {overlay_.data() + (first - overlay_.begin()),
          static_cast<std::size_t>(last - first)};
}

std::vector<std::size_t> DeltaIndex::SelectionPositions(
    std::span<const IdRange> col_ranges) {
  const std::size_t first_col = col_ranges.front().lo;
  std::vector<std::size_t> position(col_ranges.back().hi - first_col + 1,
                                    kUnselected);
  std::size_t next = 0;
  for (const IdRange& run : col_ranges) {
    for (std::size_t col = run.lo; col <= run.hi; ++col) {
      position[col - first_col] = next++;
    }
  }
  return position;
}

std::optional<double> DeltaIndex::Find(std::size_t row,
                                       std::size_t col) const {
  std::optional<double> found;
  const std::uint64_t key = CellKey(row, col, cols_);
  const std::span<const Patch> patches = RowPatches(row);
  const auto patch = std::lower_bound(
      patches.begin(), patches.end(), key,
      [](const Patch& p, std::uint64_t k) { return p.key < k; });
  if (patch != patches.end() && patch->key == key) {
    found = patch->delta;
  } else {
    const std::span<const std::uint32_t> cols = BaseCols(row);
    const auto it = std::lower_bound(cols.begin(), cols.end(), col);
    if (it != cols.end() && *it == col) {
      found = BaseDeltas(row)[static_cast<std::size_t>(it - cols.begin())];
    }
  }
  CountLookups(1, found.has_value() ? 1 : 0);
  return found;
}

void DeltaIndex::AddToRow(std::size_t row, std::span<double> out) const {
  bool hit = false;
  ForEachInRow(row, [&](std::size_t col, double delta) {
    out[col] += delta;
    hit = true;
  });
  CountLookups(1, hit ? 1 : 0);
}

void DeltaIndex::AddToRegion(std::span<const std::size_t> row_ids,
                             std::span<const std::size_t> col_ids,
                             Matrix* out) const {
  if (row_ids.empty() || col_ids.empty()) return;
  // Each delta finds every copy of its column through a table over the
  // selection's column span: first[col - first_col] is the column's
  // first position, and next[c] the next position holding c's id.
  const auto [min_id, max_id] =
      std::minmax_element(col_ids.begin(), col_ids.end());
  const std::size_t first_col = *min_id;
  std::vector<std::size_t> first(*max_id - first_col + 1, kUnselected);
  std::vector<std::size_t> next(col_ids.size());
  for (std::size_t c = col_ids.size(); c-- > 0;) {
    std::size_t& head = first[col_ids[c] - first_col];
    next[c] = head;
    head = c;
  }
  std::uint64_t hits = 0;
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    const std::span<double> dst = out->Row(r);
    bool hit = false;
    ForEachInRow(row_ids[r], [&](std::size_t col, double delta) {
      const std::size_t offset = col - first_col;  // wraps below first_col
      if (offset >= first.size()) return;
      for (std::size_t c = first[offset]; c != kUnselected; c = next[c]) {
        dst[c] += delta;
        hit = true;
      }
    });
    hits += hit ? 1 : 0;
  }
  CountLookups(row_ids.size(), hits);
}

double DeltaIndex::RegionSum(std::span<const IdRange> row_ranges,
                             std::span<const IdRange> col_ranges) const {
  if (size_ == 0 || row_ranges.empty() || col_ranges.empty()) return 0.0;
  std::vector<double> sums(RangesSize(col_ranges), 0.0);
  AddColumnSums(row_ranges, col_ranges, sums);
  double sum = 0.0;
  for (const double s : sums) sum += s;
  return sum;
}

void DeltaIndex::AddColumnSums(std::span<const IdRange> row_ranges,
                               std::span<const IdRange> col_ranges,
                               std::span<double> out) const {
  if (size_ == 0 || row_ranges.empty() || col_ranges.empty()) return;
  const Base& base = *base_;
  // The slot of a column in `out`, or kUnselected.
  const std::size_t first_col = col_ranges.front().lo;
  const std::vector<std::size_t> position = SelectionPositions(col_ranges);
  const auto slot = [&](std::size_t col) {
    const std::size_t offset = col - first_col;  // wraps below first_col
    return offset < position.size() ? position[offset] : kUnselected;
  };
  // The base deltas alone, summed apart from `out` and added once.
  std::vector<double> sums(out.size(), 0.0);
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  // sums += sign * the selected base deltas of rows [a, b).
  const auto walk = [&](std::size_t a, std::size_t b, double sign) {
    const std::uint64_t* offsets = base.row_offsets.data();
    for (std::size_t row = a; row < b; ++row) {
      bool hit = false;
      for (std::uint64_t e = offsets[row]; e < offsets[row + 1]; ++e) {
        const std::size_t g = slot(base.row_cols[e]);
        if (g == kUnselected) continue;
        sums[g] += sign * base.row_deltas[e];
        hit = true;
      }
      hits += hit ? 1 : 0;
    }
    lookups += b - a;
  };
  // The index of the checkpoint nearest to row boundary x <= base.rows,
  // and the boundary of checkpoint s.
  const auto nearest = [&](std::size_t x) {
    const std::size_t s = x / kCheckpointRows;
    const std::size_t below = s * kCheckpointRows;
    const std::size_t above = std::min(below + kCheckpointRows, base.rows);
    return below == x || x - below <= above - x ? s : s + 1;
  };
  const auto boundary = [&](std::size_t s) {
    return std::min(s * kCheckpointRows, base.rows);
  };
  // sums += sign * (prefix(x) - the prefix at boundary c).
  const auto walk_between = [&](std::size_t c, std::size_t x, double sign) {
    if (c <= x) {
      walk(c, x, sign);
    } else {
      walk(x, c, -sign);
    }
  };
  for (const IdRange& run : row_ranges) {
    if (run.lo >= base.rows) continue;
    const std::size_t lo = run.lo;
    const std::size_t end = std::min(run.hi + 1, base.rows);
    if (end - lo <= kCheckpointRows) {
      walk(lo, end, 1.0);
      continue;
    }
    // prefix(end) - prefix(lo), each prefix a checkpoint row corrected
    // by the rows between it and the boundary.
    const std::size_t s_end = nearest(end);
    const std::size_t s_lo = nearest(lo);
    const double* upper = base.col_prefix.data() + s_end * cols_;
    const double* lower = base.col_prefix.data() + s_lo * cols_;
    std::size_t g = 0;
    for (const IdRange& cols : col_ranges) {
      for (std::size_t col = cols.lo; col <= cols.hi; ++col) {
        sums[g++] += upper[col] - lower[col];
      }
    }
    lookups += 2;
    hits += 2;
    walk_between(boundary(s_end), end, 1.0);
    walk_between(boundary(s_lo), lo, -1.0);
  }
  // Overlay patches swap the base delta they shadow for their own.
  for (const Patch& patch : overlay_) {
    const std::size_t g = slot(static_cast<std::size_t>(patch.key % cols_));
    if (g == kUnselected ||
        !InRanges(row_ranges, static_cast<std::size_t>(patch.key / cols_))) {
      continue;
    }
    sums[g] += patch.delta - patch.shadowed;
  }
  for (std::size_t g = 0; g < out.size(); ++g) out[g] += sums[g];
  CountLookups(lookups, hits);
}

void DeltaIndex::AddRowSums(std::span<const IdRange> row_ranges,
                            std::span<const IdRange> col_ranges,
                            std::span<double> out) const {
  if (size_ == 0 || row_ranges.empty() || col_ranges.empty()) return;
  const bool all_cols = RangesSize(col_ranges) == cols_;
  std::uint64_t hits = 0;
  std::size_t g = 0;
  ForEachId(row_ranges, [&](std::size_t row) {
    bool hit = false;
    ForEachInRow(row, [&](std::size_t col, double delta) {
      if (all_cols || InRanges(col_ranges, col)) {
        out[g] += delta;
        hit = true;
      }
    });
    hits += hit ? 1 : 0;
    ++g;
  });
  CountLookups(g, hits);
}

DeltaIndex DeltaIndex::WithPatch(std::size_t row, std::size_t col,
                                 double delta) const {
  TSC_CHECK(row < rows_ && col < cols_) << "patch outside the index";
  DeltaIndex next = *this;
  const std::uint64_t key = CellKey(row, col, cols_);
  const auto it = std::lower_bound(
      next.overlay_.begin(), next.overlay_.end(), key,
      [](const Patch& p, std::uint64_t k) { return p.key < k; });
  if (it != next.overlay_.end() && it->key == key) {
    it->delta = delta;
    return next;
  }
  Patch patch;
  patch.key = key;
  patch.delta = delta;
  const std::span<const std::uint32_t> cols = BaseCols(row);
  const auto at = std::lower_bound(cols.begin(), cols.end(), col);
  if (at != cols.end() && *at == col) {
    patch.shadowed =
        BaseDeltas(row)[static_cast<std::size_t>(at - cols.begin())];
  } else {
    ++next.size_;
  }
  next.overlay_.insert(it, patch);
  if (next.overlay_.size() > kMaxOverlay) return next.Merged();
  return next;
}

DeltaIndex DeltaIndex::WithRows(std::size_t rows) const {
  TSC_CHECK(rows >= rows_ && rows <= kMaxDimension) << "bad row count";
  DeltaIndex next = *this;
  next.rows_ = rows;
  return next;
}

DeltaIndex DeltaIndex::Merged() const {
  std::vector<DeltaEntry> entries;
  entries.reserve(size_);
  ForEach([&](std::size_t row, std::size_t col, double delta) {
    entries.push_back({CellKey(row, col, cols_), delta});
  });
  StatusOr<DeltaIndex> merged = Build(rows_, cols_, entries);
  TSC_CHECK_OK(merged.status());
  return std::move(*merged);
}

}  // namespace tsc
