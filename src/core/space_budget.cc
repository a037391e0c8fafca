#include "core/space_budget.h"

#include "util/logging.h"

namespace tsc {

SpaceBudget SpaceBudget::FromPercent(std::size_t num_rows,
                                     std::size_t num_cols,
                                     double space_percent) {
  TSC_CHECK_GT(space_percent, 0.0);
  SpaceBudget budget;
  budget.num_rows = num_rows;
  budget.num_cols = num_cols;
  const double original = static_cast<double>(num_rows) *
                          static_cast<double>(num_cols) *
                          static_cast<double>(kBytesPerValue);
  budget.total_bytes =
      static_cast<std::uint64_t>(original * space_percent / 100.0);
  return budget;
}

std::uint64_t SpaceBudget::SvdBytes(std::size_t k) const {
  // U at its row stride (k * b for f64); eigenvalues and V at b.
  const std::uint64_t u_bytes =
      static_cast<std::uint64_t>(num_rows) * QuantRowStride(u_quant, k);
  const std::uint64_t resident =
      static_cast<std::uint64_t>(k) + static_cast<std::uint64_t>(k) * num_cols;
  return u_bytes + resident * kBytesPerValue;
}

std::size_t SpaceBudget::MaxK() const {
  // SvdBytes is linear in k up to the quantized rows' 8-byte padding;
  // solve with the per-component estimate, then adjust both ways so the
  // result is exact under any scheme.
  const std::uint64_t per_component =
      static_cast<std::uint64_t>(num_rows) * QuantElemBytes(u_quant) +
      (1 + static_cast<std::uint64_t>(num_cols)) * kBytesPerValue;
  if (per_component == 0) return 0;
  const std::uint64_t fixed =
      u_quant == QuantScheme::kF64
          ? 0
          : static_cast<std::uint64_t>(num_rows) * kQuantRowMetaBytes;
  if (total_bytes <= fixed) return 0;
  std::size_t k =
      static_cast<std::size_t>((total_bytes - fixed) / per_component);
  k = k > num_cols ? num_cols : k;
  while (k > 0 && SvdBytes(k) > total_bytes) --k;
  while (k < num_cols && SvdBytes(k + 1) <= total_bytes) ++k;
  return k;
}

std::uint64_t SpaceBudget::DeltaCount(std::size_t k,
                                      std::uint64_t delta_bytes) const {
  TSC_CHECK_GT(delta_bytes, 0u);
  const std::uint64_t svd = SvdBytes(k);
  if (svd >= total_bytes) return 0;
  return (total_bytes - svd) / delta_bytes;
}

double SpaceBudget::ApproximateSpaceFraction(std::size_t k) const {
  if (num_cols == 0) return 0.0;
  return static_cast<double>(k) / static_cast<double>(num_cols);
}

}  // namespace tsc
