#ifndef TSC_CORE_ERROR_HISTOGRAM_H_
#define TSC_CORE_ERROR_HISTOGRAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/kahan.h"

namespace tsc {

/// Histogram of squared cell errors, the SVDD pass-2 summary that
/// replaces retaining the worst cells themselves (DESIGN.md §7).
///
/// A value's bin is the top 16 bits of its IEEE-754 pattern (sign,
/// exponent and 4 mantissa bits). For err2 >= 0 that pattern is monotone
/// in the value, so bins are half-open value intervals 1/16 of an octave
/// wide, ordered like the values, and a bin's edges are exact doubles.
/// The histogram holds a window of kBins consecutive bins starting at
/// `base`; values below the window fall into bin 0 (lower edge 0) and
/// values above it into the last bin (upper edge +inf), so any window is
/// correct and a well-placed one is merely tighter. Each bin keeps a
/// count and a compensated sum.
class ErrorHistogram {
 public:
  /// 128 octaves.
  static constexpr std::size_t kBins = 2048;

  struct Bin {
    std::uint64_t count = 0;
    KahanSum sum;
  };

  /// Window base whose top bins sit 8 octaves above `anchor`, an
  /// estimate of the largest err2 the build can produce.
  static std::uint32_t BaseFor(double anchor);

  explicit ErrorHistogram(std::uint32_t base);

  std::size_t BinOf(double err2) const {
    const std::uint64_t raw = std::bit_cast<std::uint64_t>(err2) >> 48;
    if (raw <= base_) return 0;
    return raw - base_ < kBins ? static_cast<std::size_t>(raw - base_)
                               : kBins - 1;
  }
  /// Smallest value in `bin`: BinOf(x) >= bin exactly when x >= it.
  double LowerEdge(std::size_t bin) const;
  /// Smallest value above `bin` (+inf for the last bin).
  double UpperEdge(std::size_t bin) const;

  void Add(double err2) {
    const std::size_t b = BinOf(err2);
    ++bins_[b].count;
    bins_[b].sum.Add(err2);
    if (b > top_) top_ = b;
  }

  const Bin& bin(std::size_t b) const { return bins_[b]; }
  /// Highest bin that ever received a value (0 when empty).
  std::size_t top() const { return top_; }
  std::uint64_t CountAtOrAbove(std::size_t bin) const;
  std::size_t MemoryBytes() const { return bins_.size() * sizeof(Bin); }

 private:
  std::uint32_t base_;
  std::size_t top_ = 0;
  std::vector<Bin> bins_;
};

/// The highest bin b whose count of values at or above b, summed over
/// `parts`, reaches `gamma` (0 when none does). Every value strictly below
/// LowerEdge(b) is outranked by at least gamma counted values, so it
/// cannot be among the gamma largest. All parts share one window.
std::size_t CutoffBin(std::span<const ErrorHistogram* const> parts,
                      std::uint64_t gamma);

/// Where epsilon_k = SSE_k - (sum of the gamma largest err2) lies, given
/// histograms that counted every value at or above the final CutoffBin.
struct ResidualBracket {
  /// Bounds on epsilon_k, widened by a rounding margin so they contain
  /// the value the exact path computes (a compensated sum of the sorted
  /// top-gamma set subtracted from `sse`, clamped at 0).
  double lo = 0.0;
  double hi = 0.0;
  /// Every top-gamma value is >= cutoff (+inf when gamma == 0).
  double cutoff = 0.0;
  /// Counted values >= cutoff: exactly the cells pass 3 collects.
  std::uint64_t at_or_above = 0;
};

/// Merges `parts` bin by bin in span order (so the sums do not depend on
/// which thread filled which part) and brackets epsilon_k. With gamma ==
/// 0 the bracket is the exact point max(0, sse).
ResidualBracket BracketResidual(std::span<const ErrorHistogram* const> parts,
                                std::uint64_t gamma, double sse);

}  // namespace tsc

#endif  // TSC_CORE_ERROR_HISTOGRAM_H_
