#ifndef TSC_STORAGE_BLOOM_FILTER_H_
#define TSC_STORAGE_BLOOM_FILTER_H_

#include <cstdint>
#include <vector>

#include "storage/serializer.h"
#include "util/status.h"

namespace tsc {

/// Standard Bloom filter over 64-bit keys. The paper suggests it twice:
/// in front of the SVDD delta hash table ("predict the majority of
/// non-outliers, and thus save several probes", Section 4.2) and to flag
/// all-zero customers (Section 6.2). Only bench/ablation_svdd uses it,
/// to reproduce the paper's hash table + filter layout beside DeltaIndex.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_entries` at `bits_per_entry` (10 bits
  /// per entry gives ~1% false positives); the number of hash functions is
  /// derived as ln 2 * bits_per_entry.
  BloomFilter(std::size_t expected_entries, double bits_per_entry = 10.0);

  void Add(std::uint64_t key);

  /// False means definitely absent; true means probably present.
  bool MightContain(std::uint64_t key) const;

  std::size_t bit_count() const { return bit_count_; }
  std::size_t hash_count() const { return hash_count_; }
  std::size_t entry_count() const { return entry_count_; }
  std::uint64_t SizeBytes() const { return bits_.size() * sizeof(std::uint64_t); }

  /// Theoretical false-positive probability at the current fill.
  double EstimatedFalsePositiveRate() const;

  Status Serialize(BinaryWriter* writer) const;
  static StatusOr<BloomFilter> Deserialize(BinaryReader* reader);

 private:
  BloomFilter() = default;

  static void TwoHashes(std::uint64_t key, std::uint64_t* h1,
                        std::uint64_t* h2);

  std::size_t bit_count_ = 0;
  std::size_t hash_count_ = 0;
  std::size_t entry_count_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace tsc

#endif  // TSC_STORAGE_BLOOM_FILTER_H_
