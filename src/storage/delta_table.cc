#include "storage/delta_table.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace tsc {
namespace {

constexpr double kMaxLoadFactor = 0.7;
constexpr std::size_t kMinBuckets = 16;

std::size_t BucketCountFor(std::size_t entries) {
  std::size_t wanted = kMinBuckets;
  while (static_cast<double>(entries) >
         kMaxLoadFactor * static_cast<double>(wanted)) {
    wanted <<= 1;
  }
  return wanted;
}

}  // namespace

DeltaTable::DeltaTable(std::size_t expected_entries)
    : buckets_(BucketCountFor(expected_entries)) {}

DeltaTable::DeltaTable(const DeltaTable& other)
    : buckets_(other.buckets_),
      size_(other.size_),
      entry_bytes_(other.entry_bytes_),
      probe_count_(other.probe_count()) {}

DeltaTable& DeltaTable::operator=(const DeltaTable& other) {
  if (this != &other) {
    buckets_ = other.buckets_;
    size_ = other.size_;
    entry_bytes_ = other.entry_bytes_;
    probe_count_.store(other.probe_count(), std::memory_order_relaxed);
  }
  return *this;
}

DeltaTable::DeltaTable(DeltaTable&& other) noexcept
    : buckets_(std::move(other.buckets_)),
      size_(other.size_),
      entry_bytes_(other.entry_bytes_),
      probe_count_(other.probe_count()) {}

DeltaTable& DeltaTable::operator=(DeltaTable&& other) noexcept {
  if (this != &other) {
    buckets_ = std::move(other.buckets_);
    size_ = other.size_;
    entry_bytes_ = other.entry_bytes_;
    probe_count_.store(other.probe_count(), std::memory_order_relaxed);
  }
  return *this;
}

std::uint64_t DeltaTable::HashKey(std::uint64_t key) {
  // splitmix64 finalizer: cheap and well-mixed for sequential cell keys.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void DeltaTable::Put(std::uint64_t key, double delta) {
  if (static_cast<double>(size_ + 1) >
      kMaxLoadFactor * static_cast<double>(buckets_.size())) {
    Grow();
  }
  std::size_t slot = HashKey(key) & Mask();
  for (;;) {
    Bucket& b = buckets_[slot];
    if (!b.occupied) {
      b.key = key;
      b.delta = delta;
      b.occupied = true;
      ++size_;
      return;
    }
    if (b.key == key) {
      b.delta = delta;
      return;
    }
    slot = (slot + 1) & Mask();
  }
}

std::optional<double> DeltaTable::Get(std::uint64_t key) const {
  std::size_t slot = HashKey(key) & Mask();
  std::uint64_t probes = 0;
  std::optional<double> result;
  for (;;) {
    ++probes;
    const Bucket& b = buckets_[slot];
    if (!b.occupied) break;
    if (b.key == key) {
      result = b.delta;
      break;
    }
    slot = (slot + 1) & Mask();
  }
  probe_count_.fetch_add(probes, std::memory_order_relaxed);
  return result;
}

void DeltaTable::Grow() {
  // Rehash via Put; Put never touches probe_count_, so the probe metric
  // keeps counting lookups only.
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, Bucket{});
  size_ = 0;
  for (const Bucket& b : old) {
    if (b.occupied) Put(b.key, b.delta);
  }
}

Status DeltaTable::Serialize(BinaryWriter* writer) const {
  TSC_RETURN_IF_ERROR(writer->WriteU64(entry_bytes_));
  TSC_RETURN_IF_ERROR(writer->WriteU64(size_));
  // Emit entries in key order, not probe order: the hash table's layout
  // depends on its insertion/growth history, so two tables holding the
  // same deltas (e.g. freshly built vs reloaded) would otherwise
  // serialize to different bytes. Sorting makes the on-disk form a pure
  // function of the contents — save(load(save(x))) == save(x).
  std::vector<std::pair<std::uint64_t, double>> entries;
  entries.reserve(size_);
  ForEach([&](std::uint64_t key, double delta) {
    entries.emplace_back(key, delta);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, delta] : entries) {
    TSC_RETURN_IF_ERROR(writer->WriteU64(key));
    TSC_RETURN_IF_ERROR(writer->WriteDouble(delta));
  }
  return Status::Ok();
}

StatusOr<DeltaTable> DeltaTable::Deserialize(BinaryReader* reader) {
  TSC_ASSIGN_OR_RETURN(const std::uint64_t entry_bytes, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  if (count > (1ULL << 32)) return Status::IoError("corrupt delta count");
  if (entry_bytes == 0 || entry_bytes > 64) {
    return Status::IoError("corrupt delta entry size");
  }
  DeltaTable table(static_cast<std::size_t>(count));
  table.entry_bytes_ = entry_bytes;
  for (std::uint64_t i = 0; i < count; ++i) {
    TSC_ASSIGN_OR_RETURN(const std::uint64_t key, reader->ReadU64());
    TSC_ASSIGN_OR_RETURN(const double delta, reader->ReadDouble());
    table.Put(key, delta);
  }
  return table;
}

}  // namespace tsc
