#include "cube/rollup.h"

#include <vector>

#include "linalg/kernels.h"

namespace tsc {

std::shared_ptr<AggregateHierarchy> AggregateHierarchy::Build(
    const SvddModel& model) {
  return std::shared_ptr<AggregateHierarchy>(new AggregateHierarchy(model));
}

StatusOr<double> AggregateHierarchy::RegionSum(
    std::span<const IdRange> row_ranges, std::span<const IdRange> col_ranges,
    RollupStats* stats) const {
  const std::size_t k = model_->k();
  const Matrix& weighted_v = model_->weighted_v();
  std::vector<double> row_mass(k, 0.0);
  std::vector<double> col_mass(k, 0.0);
  TSC_ASSIGN_OR_RETURN(const std::uint64_t reads,
                       model_->AccumulateRowMass(row_ranges, row_mass));
  if (stats != nullptr) stats->nodes_read += reads;
  ForEachId(col_ranges, [&](std::size_t j) {
    kernels::Axpy(1.0, weighted_v.Row(j).data(), col_mass.data(), k);
  });
  return kernels::Dot(row_mass.data(), col_mass.data(), k) +
         model_->deltas()->RegionSum(row_ranges, col_ranges);
}

}  // namespace tsc
