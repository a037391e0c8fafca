#ifndef TSC_OBS_SLOWLOG_H_
#define TSC_OBS_SLOWLOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_context.h"

namespace tsc::obs {

/// One retained request: identity, the request line as the client sent
/// it, the outcome, and the full per-request cost vector.
struct SlowQueryEntry {
  std::uint64_t seq = 0;  ///< admission order (assigned by the log)
  std::string trace_id;
  std::string endpoint;      ///< "data" | "query" | "cell" | ...
  std::string request_line;  ///< "GET /api/v1/data?after=-10&rows=0:4"
  int http_status = 0;
  double latency_us = 0.0;
  QueryCostVector costs;
};

/// Bounded top-K log of the slowest requests seen so far: a min-heap on
/// latency under one mutex, so recording is O(log K) only when a request
/// actually displaces an entry and O(1) (compare against the current
/// floor) for the fast majority. K is fixed at construction; the server
/// owns one instance and /api/v1/debug/slow snapshots it.
///
/// Compiled out (record becomes a no-op) under TSC_OBS_DISABLED.
class SlowQueryLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit SlowQueryLog(std::size_t capacity = kDefaultCapacity);

  /// Keeps `entry` iff it ranks among the K slowest; assigns seq.
  void Record(SlowQueryEntry entry);

  /// Record() for a caller whose entry is costly to build: `build()`
  /// runs, outside the lock, only when `latency_us` is above the current
  /// floor. The request counts toward recorded() either way.
  template <typename Build>
  void RecordIfSlow(double latency_us, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (heap_.size() == capacity_ &&
          latency_us <= heap_.front().latency_us) {
        ++next_seq_;
        return;
      }
    }
    Record(build());
  }

  /// Entries sorted slowest-first.
  std::vector<SlowQueryEntry> Snapshot() const;

  void Clear();
  std::size_t capacity() const { return capacity_; }

  /// Total requests offered to Record (retained or not).
  std::uint64_t recorded() const;

  /// {"capacity": K, "entries": [{trace_id, endpoint, request, status,
  /// latency_us, costs{...}}, ...]} — the wire format of
  /// /api/v1/debug/slow.
  static std::string ToJson(const std::vector<SlowQueryEntry>& entries,
                            std::size_t capacity);
  /// Aligned table for terminals (`tsctool slowlog`).
  static std::string ToTable(const std::vector<SlowQueryEntry>& entries);

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::vector<SlowQueryEntry> heap_;  ///< min-heap by latency_us
};

}  // namespace tsc::obs

#endif  // TSC_OBS_SLOWLOG_H_
