#ifndef TSC_UTIL_BOUNDED_HEAP_H_
#define TSC_UTIL_BOUNDED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/kahan.h"
#include "util/logging.h"

namespace tsc {

/// Keeps the `capacity` items with the LARGEST keys seen so far, in O(log c)
/// per offer, using a min-heap on the key (top-k similarity search, the
/// wavelet baseline's coefficient pick, the row-outlier model).
template <typename Key, typename Value>
class BoundedTopHeap {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  explicit BoundedTopHeap(std::size_t capacity) : capacity_(capacity) {
    // Cap the eager reservation: a capacity can be far above what a
    // stream ever offers.
    heap_.reserve(std::min<std::size_t>(capacity, 1024));
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Smallest retained key; only meaningful when size() == capacity().
  const Key& MinKey() const {
    TSC_CHECK(!heap_.empty());
    return heap_.front().key;
  }

  /// Returns true when the item was retained (possibly evicting the current
  /// minimum). Capacity-zero heaps retain nothing.
  bool Offer(const Key& key, const Value& value) {
    if (capacity_ == 0) return false;
    if (heap_.size() < capacity_) {
      heap_.push_back(Entry{key, value});
      std::push_heap(heap_.begin(), heap_.end(), GreaterByKey());
      return true;
    }
    if (!(heap_.front().key < key)) return false;
    std::pop_heap(heap_.begin(), heap_.end(), GreaterByKey());
    heap_.back() = Entry{key, value};
    std::push_heap(heap_.begin(), heap_.end(), GreaterByKey());
    return true;
  }

  /// Sum of keys currently retained. Floating-point keys are summed with
  /// Kahan compensation: a heap can hold many keys spanning orders of
  /// magnitude, where a naive sum loses precision.
  Key KeySum() const {
    if constexpr (std::is_floating_point_v<Key>) {
      KahanSum total;
      for (const Entry& e : heap_) total.Add(e.key);
      return static_cast<Key>(total.value());
    } else {
      Key total{};
      for (const Entry& e : heap_) total += e.key;
      return total;
    }
  }

  /// Extracts all retained entries, largest key first. The heap is emptied.
  std::vector<Entry> TakeSortedDescending() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return b.key < a.key;
    });
    return out;
  }

  /// Read-only access in heap order (no ordering guarantee).
  const std::vector<Entry>& entries() const { return heap_; }

 private:
  struct GreaterByKey {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };

  std::size_t capacity_;
  std::vector<Entry> heap_;
};

}  // namespace tsc

#endif  // TSC_UTIL_BOUNDED_HEAP_H_
