#ifndef TSC_CORE_COMPRESSED_DOMAIN_H_
#define TSC_CORE_COMPRESSED_DOMAIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "storage/delta_index.h"
#include "util/id_range.h"
#include "util/status.h"

namespace tsc {

/// The factors of an SVDD model as linear aggregates read them, whatever
/// holds U (DESIGN.md §14):
///   sum_{i in R, j in C} x-hat(i,j)
///     = dot(sum_{i in R} u_i, sum_{j in C} lambda.v_j) + deltas in R x C.
/// The in-memory SvddModel reads U's rows from memory; the disk layout's
/// DiskBackedStoreView reads them through its block cache, so its calls
/// can fail with the read's Status. Reached through
/// CompressedStore::compressed_domain().
class CompressedDomain {
 public:
  virtual ~CompressedDomain() = default;

  virtual std::size_t k() const = 0;
  /// The Lambda-weighted right factor: row j is lambda (.) v_j.
  virtual const Matrix& weighted_v() const = 0;
  /// Adds sum_{i in runs} u_i to out[0..k) (+=, caller zeroes) from U's
  /// block sums (RowBlockSums). `runs` must be sorted, disjoint and
  /// within range. Returns the number of k-vectors read.
  virtual StatusOr<std::uint64_t> AccumulateRowMass(
      std::span<const IdRange> runs, std::span<double> out) const = 0;
  /// Appends dot(u_i, weights) to `out` for every i in `runs`, in order.
  virtual Status AppendRowDots(std::span<const IdRange> runs,
                               std::span<const double> weights,
                               std::vector<double>* out) const = 0;
  /// The delta snapshot to fold; it stays valid while the caller holds it.
  virtual std::shared_ptr<const DeltaIndex> deltas() const = 0;
};

}  // namespace tsc

#endif  // TSC_CORE_COMPRESSED_DOMAIN_H_
