#ifndef TSC_UTIL_ID_RANGE_H_
#define TSC_UTIL_ID_RANGE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace tsc {

/// One inclusive id run. A selection is a list of them: the parser's
/// and the data API's ranges as written (any order, overlaps allowed),
/// and, once normalized, the sorted disjoint runs every plan and
/// range-shaped aggregate is phrased over.
struct IdRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  friend bool operator==(const IdRange&, const IdRange&) = default;
};

/// The union of `ranges` as sorted, disjoint, maximal runs: sorts by
/// `lo`, then merges overlapping and adjacent ranges. A range with
/// lo > hi selects nothing and is dropped. O(R log R) in the number of
/// ranges, whatever ids they span.
inline std::vector<IdRange> NormalizeRanges(std::vector<IdRange> ranges) {
  std::erase_if(ranges, [](const IdRange& r) { return r.lo > r.hi; });
  std::sort(ranges.begin(), ranges.end(),
            [](const IdRange& a, const IdRange& b) { return a.lo < b.lo; });
  std::vector<IdRange> runs;
  for (const IdRange& range : ranges) {
    // lo >= back().lo here, so the difference cannot wrap.
    if (!runs.empty() && (range.lo <= runs.back().hi ||
                          range.lo - runs.back().hi == 1)) {
      runs.back().hi = std::max(runs.back().hi, range.hi);
    } else {
      runs.push_back(range);
    }
  }
  return runs;
}

/// Ids in any order, repeats allowed, as normalized runs.
inline std::vector<IdRange> CoalesceIds(std::span<const std::size_t> ids) {
  std::vector<IdRange> ranges;
  ranges.reserve(ids.size());
  for (const std::size_t id : ids) ranges.push_back({id, id});
  return NormalizeRanges(std::move(ranges));
}

/// Intersection of two normalized run lists by a two-pointer merge,
/// O(|a| + |b|). The result is normalized too: two touching pieces would
/// have to come from one run of `a` and one run of `b`.
inline std::vector<IdRange> IntersectRanges(std::span<const IdRange> a,
                                            std::span<const IdRange> b) {
  std::vector<IdRange> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::size_t lo = std::max(a[i].lo, b[j].lo);
    const std::size_t hi = std::min(a[i].hi, b[j].hi);
    if (lo <= hi) out.push_back({lo, hi});
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
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

/// Calls fn(id) for every id of the runs, in order.
template <typename Fn>
void ForEachId(std::span<const IdRange> ranges, Fn&& fn) {
  for (const IdRange& r : ranges) {
    for (std::size_t id = r.lo;; ++id) {
      fn(id);
      if (id == r.hi) break;
    }
  }
}

/// The ids of the runs as a list. O(ids): only for outputs that are one
/// entry per id anyway (group keys, a region's columns).
inline std::vector<std::size_t> ExpandRanges(
    std::span<const IdRange> ranges) {
  std::vector<std::size_t> ids;
  ids.reserve(RangesSize(ranges));
  ForEachId(ranges, [&](std::size_t id) { ids.push_back(id); });
  return ids;
}

}  // namespace tsc

#endif  // TSC_UTIL_ID_RANGE_H_
