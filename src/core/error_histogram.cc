#include "core/error_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace tsc {
namespace {

/// Bins per octave is fixed by the 4 mantissa bits in a bin index.
constexpr std::uint64_t kBinsPerOctave = 16;
/// Windows stop below the +inf pattern so every edge but the last is
/// finite.
constexpr std::uint64_t kMaxBase = 0x7FF0 - ErrorHistogram::kBins;

/// Relative slack that covers the rounding of both sides of a bracket:
/// compensated sums are within 2u of the exact sum of their addends (u =
/// epsilon/2, plus an n*u^2 term that stays negligible below ~1e14
/// addends), and the bracket and the exact path each add a handful of
/// roundings on top. 32 epsilon = 64u leaves several-fold headroom.
constexpr double kRoundingSlack = 32 * std::numeric_limits<double>::epsilon();

double EdgeOfRaw(std::uint64_t raw) { return std::bit_cast<double>(raw << 48); }

}  // namespace

std::uint32_t ErrorHistogram::BaseFor(double anchor) {
  const std::uint64_t raw =
      (anchor > 0.0 ? std::bit_cast<std::uint64_t>(anchor) >> 48 : 0) +
      8 * kBinsPerOctave;
  if (raw < kBins) return 0;
  return static_cast<std::uint32_t>(std::min(raw - (kBins - 1), kMaxBase));
}

ErrorHistogram::ErrorHistogram(std::uint32_t base)
    : base_(std::min<std::uint32_t>(base, kMaxBase)), bins_(kBins) {}

double ErrorHistogram::LowerEdge(std::size_t bin) const {
  return bin == 0 ? 0.0 : EdgeOfRaw(base_ + bin);
}

double ErrorHistogram::UpperEdge(std::size_t bin) const {
  return bin + 1 == kBins ? std::numeric_limits<double>::infinity()
                          : EdgeOfRaw(base_ + bin + 1);
}

std::uint64_t ErrorHistogram::CountAtOrAbove(std::size_t bin) const {
  std::uint64_t total = 0;
  for (std::size_t b = bin; b <= top_; ++b) total += bins_[b].count;
  return total;
}

std::size_t CutoffBin(std::span<const ErrorHistogram* const> parts,
                      std::uint64_t gamma) {
  std::size_t top = 0;
  for (const ErrorHistogram* part : parts) top = std::max(top, part->top());
  std::uint64_t seen = 0;
  for (std::size_t b = top; b > 0; --b) {
    for (const ErrorHistogram* part : parts) seen += part->bin(b).count;
    if (seen >= gamma) return b;
  }
  return 0;
}

ResidualBracket BracketResidual(std::span<const ErrorHistogram* const> parts,
                                std::uint64_t gamma, double sse) {
  ResidualBracket bracket;
  if (gamma == 0) {
    bracket.lo = bracket.hi = std::max(0.0, sse);
    bracket.cutoff = std::numeric_limits<double>::infinity();
    return bracket;
  }
  TSC_CHECK(!parts.empty());
  const ErrorHistogram& shape = *parts.front();
  const std::size_t cut = CutoffBin(parts, gamma);
  std::size_t top = 0;
  for (const ErrorHistogram* part : parts) top = std::max(top, part->top());

  // Bins above the cutoff hold only top-gamma values; merge each bin
  // across parts in span order, then fold the bins from the top down.
  KahanSum above;
  std::uint64_t above_count = 0;
  std::uint64_t edge_count = 0;
  KahanSum edge_sum;
  for (std::size_t b = top + 1; b-- > cut;) {
    std::uint64_t count = 0;
    KahanSum sum;
    for (const ErrorHistogram* part : parts) {
      count += part->bin(b).count;
      sum.Merge(part->bin(b).sum);
    }
    if (b == cut) {
      edge_count = count;
      edge_sum = sum;
    } else {
      above_count += count;
      above.Merge(sum);
    }
  }
  // Every value is counted from the cutoff up, and the cutoff is where
  // the count first reaches gamma, so 1 <= taken <= edge_count.
  TSC_CHECK(above_count < gamma && above_count + edge_count >= gamma)
      << "histograms counted fewer values than the allowance";
  const std::uint64_t taken = gamma - above_count;
  const double s = edge_sum.value();
  double part_lo = s;
  double part_hi = s;
  if (taken < edge_count) {
    // The `taken` largest of the cutoff bin: each at least the bin's
    // lower edge and their mean at least the bin's mean; each below the
    // upper edge, and the rest of the bin at least the lower edge.
    const double t = static_cast<double>(taken);
    const double c = static_cast<double>(edge_count);
    const double lower = shape.LowerEdge(cut);
    part_lo = std::max(t * lower, s * t / c);
    part_hi = std::min(t * shape.UpperEdge(cut), s - (c - t) * lower);
  }
  const double credit_lo = above.value() + part_lo;
  const double credit_hi = above.value() + part_hi;
  const double margin = kRoundingSlack * (std::abs(sse) + credit_hi);
  bracket.lo = std::max(0.0, sse - credit_hi - margin);
  bracket.hi = std::max(0.0, sse - credit_lo + margin);
  bracket.cutoff = shape.LowerEdge(cut);
  bracket.at_or_above = above_count + edge_count;
  return bracket;
}

}  // namespace tsc
