#ifndef TSC_UTIL_ID_RANGE_H_
#define TSC_UTIL_ID_RANGE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace tsc {

/// One inclusive id run. Selections arrive as sorted, disjoint runs
/// (the planner's id lists coalesced, or the data API's ranges after
/// normalization); every range-shaped aggregate is phrased over them.
struct IdRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  friend bool operator==(const IdRange&, const IdRange&) = default;
};

/// Coalesces a sorted ascending id list into maximal contiguous runs.
inline std::vector<IdRange> CoalesceIds(std::span<const std::size_t> ids) {
  std::vector<IdRange> runs;
  for (const std::size_t id : ids) {
    if (!runs.empty() && id <= runs.back().hi) continue;
    if (!runs.empty() && id == runs.back().hi + 1) {
      runs.back().hi = id;
    } else {
      runs.push_back({id, id});
    }
  }
  return runs;
}

/// Membership test against sorted disjoint runs.
inline bool InRanges(std::span<const IdRange> ranges, std::size_t id) {
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), id,
      [](std::size_t v, const IdRange& r) { return v < r.lo; });
  return it != ranges.begin() && id <= std::prev(it)->hi;
}

/// Ids covered by sorted disjoint runs.
inline std::size_t RangesSize(std::span<const IdRange> ranges) {
  std::size_t count = 0;
  for (const IdRange& r : ranges) count += r.hi - r.lo + 1;
  return count;
}

}  // namespace tsc

#endif  // TSC_UTIL_ID_RANGE_H_
