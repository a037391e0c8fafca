#include "support/streaming_generator.h"

#include <algorithm>
#include <cmath>

#include "storage/row_store.h"
#include "util/logging.h"

namespace tsc {
namespace {

/// splitmix64 finalizer: derives an independent per-row seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t row) {
  std::uint64_t z = seed + row * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

StreamingPhoneGenerator::StreamingPhoneGenerator(
    const PhoneDatasetConfig& config)
    : config_(config) {
  TSC_CHECK_GT(config.num_customers, 0u);
  TSC_CHECK_GT(config.num_days, 0u);
  TSC_CHECK_GT(config.num_patterns, 0u);
  // Patterns depend only on the seed, not on the row index.
  Rng pattern_rng(config.seed);
  patterns_ = internal_generators::BuildPhoneDayPatterns(
      config.num_patterns, config.num_days, &pattern_rng);
}

void StreamingPhoneGenerator::FillRow(std::size_t index,
                                      std::span<double> out) const {
  TSC_CHECK_LT(index, rows());
  TSC_CHECK_EQ(out.size(), cols());
  Rng rng(MixSeed(config_.seed, index));

  if (rng.Bernoulli(config_.zero_customer_fraction)) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // Zipf-tailed volume: draw a uniform rank (with replacement; the
  // in-memory generator permutes ranks without replacement — the
  // marginal volume distribution is the same).
  const double n = static_cast<double>(config_.num_customers);
  const double rank =
      1.0 + static_cast<double>(rng.UniformUint64(config_.num_customers));
  const double volume = config_.base_volume * std::pow(n / rank,
                                                       config_.zipf_skew) /
                        std::pow(n, config_.zipf_skew - 1.0);

  const std::size_t main_pattern =
      static_cast<std::size_t>(rng.UniformUint64(patterns_.size()));
  std::size_t side_pattern =
      static_cast<std::size_t>(rng.UniformUint64(patterns_.size()));
  if (side_pattern == main_pattern) {
    side_pattern = (side_pattern + 1) % patterns_.size();
  }
  const double w_main =
      config_.mixture_concentration +
      rng.UniformDouble() * (1.0 - config_.mixture_concentration);
  const double w_side = 1.0 - w_main;

  for (std::size_t d = 0; d < cols(); ++d) {
    const double shape = w_main * patterns_[main_pattern][d] +
                         w_side * patterns_[side_pattern][d];
    double value = volume * shape *
                   std::max(0.0, 1.0 + rng.Gaussian(0.0, config_.noise_level));
    if (rng.Bernoulli(config_.spike_probability)) {
      value += volume * config_.spike_scale * (0.5 + rng.UniformDouble());
    }
    out[d] = value;
  }
}

Status StreamingPhoneGenerator::WriteToFile(const std::string& path) const {
  TSC_ASSIGN_OR_RETURN(RowStoreWriter writer,
                       RowStoreWriter::Create(path, cols()));
  std::vector<double> row(cols());
  for (std::size_t i = 0; i < rows(); ++i) {
    FillRow(i, row);
    TSC_RETURN_IF_ERROR(writer.AppendRow(row));
  }
  return writer.Close();
}

StatusOr<bool> GeneratedPhoneRowSource::NextRow(std::span<double> out) {
  if (next_row_ >= rows()) return false;
  if (out.size() != cols()) {
    return Status::InvalidArgument("NextRow buffer size != cols");
  }
  generator_.FillRow(next_row_, out);
  ++next_row_;
  return true;
}

}  // namespace tsc
