#include "lib/ablation/bloom_filter.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace tsc {

BloomFilter::BloomFilter(std::size_t expected_entries, double bits_per_entry) {
  TSC_CHECK_GT(bits_per_entry, 0.0);
  const std::size_t entries = std::max<std::size_t>(expected_entries, 1);
  bit_count_ = std::max<std::size_t>(
      64, static_cast<std::size_t>(bits_per_entry * static_cast<double>(entries)));
  hash_count_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(bits_per_entry * std::log(2.0))));
  bits_.assign((bit_count_ + 63) / 64, 0);
}

void BloomFilter::TwoHashes(std::uint64_t key, std::uint64_t* h1,
                            std::uint64_t* h2) {
  // Two independent mixes; double hashing h1 + i*h2 yields the k indexes.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  *h1 = z ^ (z >> 31);
  std::uint64_t w = key ^ 0xc2b2ae3d27d4eb4fULL;
  w = (w ^ (w >> 33)) * 0xff51afd7ed558ccdULL;
  w = (w ^ (w >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  *h2 = (w ^ (w >> 33)) | 1;  // odd, so the probe sequence cycles all bits
}

void BloomFilter::Add(std::uint64_t key) {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  TwoHashes(key, &h1, &h2);
  for (std::size_t i = 0; i < hash_count_; ++i) {
    const std::size_t bit = static_cast<std::size_t>((h1 + i * h2) % bit_count_);
    bits_[bit >> 6] |= (1ULL << (bit & 63));
  }
  ++entry_count_;
}

bool BloomFilter::MightContain(std::uint64_t key) const {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  TwoHashes(key, &h1, &h2);
  for (std::size_t i = 0; i < hash_count_; ++i) {
    const std::size_t bit = static_cast<std::size_t>((h1 + i * h2) % bit_count_);
    if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

double BloomFilter::EstimatedFalsePositiveRate() const {
  const double k = static_cast<double>(hash_count_);
  const double n = static_cast<double>(entry_count_);
  const double m = static_cast<double>(bit_count_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

Status BloomFilter::Serialize(BinaryWriter* writer) const {
  TSC_RETURN_IF_ERROR(writer->WriteU64(bit_count_));
  TSC_RETURN_IF_ERROR(writer->WriteU64(hash_count_));
  TSC_RETURN_IF_ERROR(writer->WriteU64(entry_count_));
  TSC_RETURN_IF_ERROR(writer->WriteU64(bits_.size()));
  return writer->WriteBytes(bits_.data(), bits_.size() * sizeof(std::uint64_t));
}

StatusOr<BloomFilter> BloomFilter::Deserialize(BinaryReader* reader) {
  BloomFilter filter;
  TSC_ASSIGN_OR_RETURN(const std::uint64_t bit_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t hash_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t entry_count, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint64_t word_count, reader->ReadU64());
  if (word_count > (1ULL << 32) || hash_count == 0 || hash_count > 64 ||
      bit_count == 0 || (bit_count + 63) / 64 != word_count) {
    return Status::IoError("corrupt bloom filter header");
  }
  filter.bit_count_ = static_cast<std::size_t>(bit_count);
  filter.hash_count_ = static_cast<std::size_t>(hash_count);
  filter.entry_count_ = static_cast<std::size_t>(entry_count);
  filter.bits_.resize(word_count);
  TSC_RETURN_IF_ERROR(reader->ReadBytes(
      filter.bits_.data(), filter.bits_.size() * sizeof(std::uint64_t)));
  return filter;
}

}  // namespace tsc
