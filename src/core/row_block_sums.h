#ifndef TSC_CORE_ROW_BLOCK_SUMS_H_
#define TSC_CORE_ROW_BLOCK_SUMS_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "util/id_range.h"
#include "util/logging.h"
#include "util/status.h"

namespace tsc {

/// k-wide sums of U over aligned 64-row blocks and 4096-row superblocks
/// (the last of each may be short), and the walk that forms a run of
/// rows' U mass from them. SvdModel owns one, whether U's rows are in
/// memory or on disk; its U-row accessor fetches a run's ragged end rows.
///
/// Beside each block sum it keeps the block's box: per component, the
/// min and max of U over the block's rows, which bounds every value a
/// block can reconstruct (the MIN/MAX search, DESIGN.md §14).
class RowBlockSums {
 public:
  static constexpr std::size_t kRowBlock = 64;
  static constexpr std::size_t kRowSuperblock = 64 * kRowBlock;

  RowBlockSums() = default;
  /// Zeroed sums and empty boxes over `rows` rows of width `k`. Feed
  /// every row once with AddRow, in increasing row order, then call
  /// Finish.
  RowBlockSums(std::size_t rows, std::size_t k);

  /// Adds row `i` of U into its block sum and widens its block's box to
  /// it. The row order fixes the sums' low-order bits, so every owner
  /// builds them identically.
  void AddRow(std::size_t i, const double* u_row) {
    const std::size_t block = i / kRowBlock;
    kernels::Axpy(1.0, u_row, blocks_.Row(block).data(), k_);
    double* lo = boxes_.Row(block).data();
    double* hi = lo + k_;
    for (std::size_t p = 0; p < k_; ++p) {
      lo[p] = std::min(lo[p], u_row[p]);
      hi[p] = std::max(hi[p], u_row[p]);
    }
  }
  /// Forms the superblock sums from the finished block sums.
  void Finish();

  std::size_t rows() const { return rows_; }
  std::size_t k() const { return k_; }
  std::size_t block_count() const { return blocks_.rows(); }

  /// The box of block `block`: lo[p] <= u_ip <= hi[p] for every row i
  /// of the block and component p < k.
  std::span<const double> BoxLo(std::size_t block) const {
    return boxes_.Row(block).subspan(0, k_);
  }
  std::span<const double> BoxHi(std::size_t block) const {
    return boxes_.Row(block).subspan(k_, k_);
  }

  /// out[c] >= dot(u_i, w_c) as kernels::GemmNT computes it, for every
  /// row i of block `block` and every column c of `weights` ({k, out's
  /// size}: w_c down column c). `magnitude` is scratch of out's size.
  /// out[c] is the box's exact bound sum_p max(lo_p w_cp, hi_p w_cp) as
  /// computed, plus an allowance for the rounding of both sums. Each is
  /// at most a (k + 2)-term accumulation (GemmNT's four FMA lanes, their
  /// horizontal sum and a scalar tail; the bound's own sum in p order),
  /// so each errs by at most about (k + 2) u sum_p max(|lo_p|, |hi_p|)
  /// |w_cp|, u = eps / 2. The allowance, 2 (k + 2) eps times that sum
  /// plus a subnormal term for products that underflow, covers both with
  /// room for its own rounding.
  void BoxBounds(std::size_t block, const Matrix& weights,
                 std::span<double> magnitude, std::span<double> out) const;

  /// Adds sum_{i in runs} u_i to out[0..k) (+=, caller zeroes).
  /// `add_rows(lo, hi)` must add rows lo..hi-1 of U to `out` in row
  /// order and return a Status. A run costs at most 126 row reads, 126
  /// block reads and one read per superblock it covers. `runs` must be
  /// sorted, disjoint and within rows(). Returns the number of k-vectors
  /// read, or the first error of `add_rows`.
  template <typename AddRows>
  StatusOr<std::uint64_t> Accumulate(std::span<const IdRange> runs,
                                     std::span<double> out,
                                     AddRows&& add_rows) const {
    std::uint64_t reads = 0;
    const auto add = [&](const Matrix& sums, std::size_t index) {
      kernels::Axpy(1.0, sums.Row(index).data(), out.data(), k_);
      ++reads;
    };
    // Whether the (possibly short) unit of `size` rows starting at the
    // aligned row i ends within the run's exclusive end.
    const auto fits = [this](std::size_t i, std::size_t size,
                             std::size_t end) {
      return std::min(i + size, rows_) <= end;
    };
    for (const IdRange& run : runs) {
      TSC_DCHECK(run.lo <= run.hi && run.hi < rows_);
      std::size_t i = run.lo;
      const std::size_t end = run.hi + 1;
      // Climb: rows to a block edge, blocks to a superblock edge; then
      // superblocks; then descend through the blocks and rows left over.
      const std::size_t head_end =
          std::min(end, (i + kRowBlock - 1) / kRowBlock * kRowBlock);
      if (i < head_end) {
        TSC_RETURN_IF_ERROR(add_rows(i, head_end));
        reads += head_end - i;
        i = head_end;
      }
      for (; i < end && i % kRowSuperblock != 0 && fits(i, kRowBlock, end);
           i += kRowBlock) {
        add(blocks_, i / kRowBlock);
      }
      for (; i < end && fits(i, kRowSuperblock, end); i += kRowSuperblock) {
        add(superblocks_, i / kRowSuperblock);
      }
      for (; i < end && fits(i, kRowBlock, end); i += kRowBlock) {
        add(blocks_, i / kRowBlock);
      }
      if (i < end) {
        TSC_RETURN_IF_ERROR(add_rows(i, end));
        reads += end - i;
      }
    }
    return reads;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t k_ = 0;
  Matrix blocks_;       ///< {ceil(rows / kRowBlock), k}
  Matrix superblocks_;  ///< {ceil(rows / kRowSuperblock), k}
  Matrix boxes_;        ///< {ceil(rows / kRowBlock), 2k}: lo, then hi
};

}  // namespace tsc

#endif  // TSC_CORE_ROW_BLOCK_SUMS_H_
