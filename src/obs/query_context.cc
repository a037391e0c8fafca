#include "obs/query_context.h"

#include <cstdio>

namespace tsc::obs {

namespace detail {
constinit thread_local QueryContext* t_query_context = nullptr;
}  // namespace detail

QueryCostVector QueryContext::Costs() const {
  QueryCostVector costs;
  costs.admission_wait_us =
      admission_wait_us.load(std::memory_order_relaxed);
  costs.cache_hits = cache_hits.load(std::memory_order_relaxed);
  costs.cache_misses = cache_misses.load(std::memory_order_relaxed);
  costs.blocks_fetched = blocks_fetched.load(std::memory_order_relaxed);
  costs.io_bytes = io_bytes.load(std::memory_order_relaxed);
  costs.rows_scanned = rows_scanned.load(std::memory_order_relaxed);
  costs.delta_probes = delta_probes.load(std::memory_order_relaxed);
  costs.rollup_hits = rollup_hits.load(std::memory_order_relaxed);
  costs.scan_fallbacks = scan_fallbacks.load(std::memory_order_relaxed);
  costs.agg_nodes_read = agg_nodes_read.load(std::memory_order_relaxed);
  costs.serialize_us = serialize_us.load(std::memory_order_relaxed);
  return costs;
}

std::string QueryCostVector::ToKvString() const {
  char buffer[448];
  std::snprintf(buffer, sizeof(buffer),
                "admission_wait_us=%llu cache_hits=%llu cache_misses=%llu "
                "blocks_fetched=%llu io_bytes=%llu rows_scanned=%llu "
                "delta_probes=%llu rollup_hits=%llu "
                "scan_fallbacks=%llu agg_nodes_read=%llu serialize_us=%llu",
                static_cast<unsigned long long>(admission_wait_us),
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                static_cast<unsigned long long>(blocks_fetched),
                static_cast<unsigned long long>(io_bytes),
                static_cast<unsigned long long>(rows_scanned),
                static_cast<unsigned long long>(delta_probes),
                static_cast<unsigned long long>(rollup_hits),
                static_cast<unsigned long long>(scan_fallbacks),
                static_cast<unsigned long long>(agg_nodes_read),
                static_cast<unsigned long long>(serialize_us));
  return buffer;
}

std::string GenerateTraceId() {
  static std::atomic<std::uint64_t> sequence{0};
  // SplitMix64 finalizer over a sequence number: unique per process,
  // well-spread hex digits, no clock or RNG dependency.
  std::uint64_t x =
      sequence.fetch_add(1, std::memory_order_relaxed) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(x));
  return buffer;
}

}  // namespace tsc::obs
