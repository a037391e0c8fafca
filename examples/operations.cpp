// Operating a compressed store over its lifetime — the maintenance side
// of the paper's "no updates, or so rare they are batched off-line"
// assumption (Section 1):
//
//   1. compress to a space budget and report the error it bought;
//   2. a nightly batch appends new customers by folding them into the
//      frozen subspace (no rebuild), watching the capture ratio;
//   3. individual corrections land as exact cell patches;
//   4. when drift accumulates, rebuild.
//
//   $ ./examples/operations

#include <algorithm>
#include <cstdio>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "storage/row_source.h"
#include "util/logging.h"

int main() {
  // Day 0: the historical extract. (Spikes off: the capture-ratio drift
  // signal measures how well the SUBSPACE fits new rows; isolated spikes
  // are delta territory, not subspace territory, and would drown it.)
  tsc::PhoneDatasetConfig config;
  config.num_customers = 1500;
  config.num_days = 180;
  config.spike_probability = 0.0;
  const tsc::Dataset history = tsc::GeneratePhoneDataset(config);

  // 1. Compress to 10% of the original space.
  tsc::SvddBuildOptions options;
  options.space_percent = 10.0;
  tsc::MatrixRowSource history_source(&history.values);
  auto compressed = tsc::BuildSvddModel(&history_source, options);
  TSC_CHECK_OK(compressed.status());
  tsc::SvddModel& model = *compressed;
  std::printf("build: %.3f%% RMSPE at %.2f%% space\n",
              100.0 * tsc::Rmspe(history.values, model),
              options.space_percent);

  // 2. Nightly batch: 100 new customers drawn from the same behaviour.
  tsc::PhoneDatasetConfig new_config = config;
  new_config.num_customers = 100;
  new_config.seed = 777;
  const tsc::Dataset new_customers = tsc::GeneratePhoneDataset(new_config);
  const auto stats = model.FoldInRows(new_customers.values);
  std::printf("fold-in: +%zu customers, capture ratio %.4f %s\n",
              stats.rows_added, stats.CaptureRatio(),
              stats.CaptureRatio() > 0.9 ? "(subspace still fits)"
                                         : "(rebuild recommended!)");
  std::printf("store now serves %zu customers; new customer 1510, day 17: "
              "approx %.2f, exact %.2f\n",
              model.rows(), model.ReconstructCell(1510, 17),
              new_customers.values(10, 17));

  // 3. A correction from billing: customer 42's day 3 was mis-metered.
  const double corrected = 1234.56;
  TSC_CHECK_OK(model.PatchCell(42, 3, corrected));
  std::printf("patched (42, 3): store now returns %.2f exactly\n",
              model.ReconstructCell(42, 3));

  // 4. Drift check: fold in customers with a NOVEL behaviour pattern and
  //    watch the capture ratio flag the stale subspace.
  tsc::PhoneDatasetConfig novel_config = config;
  novel_config.num_customers = 100;
  novel_config.seed = 999;
  tsc::Dataset novel = tsc::GeneratePhoneDataset(novel_config);
  // Shift their activity into a shape the model never saw: reverse days.
  for (std::size_t i = 0; i < novel.rows(); ++i) {
    const std::span<double> row = novel.values.Row(i);
    std::reverse(row.begin(), row.end());
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = row[j] * ((j % 2 == 0) ? 2.0 : 0.1);  // high-freq pattern
    }
  }
  const auto drift = model.FoldInRows(novel.values);
  std::printf("novel-pattern batch: capture ratio %.4f %s\n",
              drift.CaptureRatio(),
              drift.CaptureRatio() > 0.9 ? "(subspace still fits)"
                                         : "(rebuild recommended!)");

  // Rebuild over everything at the same space budget.
  tsc::Matrix all = history.values;
  all.AppendRows(new_customers.values);
  all.AppendRows(novel.values);
  tsc::MatrixRowSource all_source(&all);
  auto rebuilt = tsc::BuildSvddModel(&all_source, options);
  TSC_CHECK_OK(rebuilt.status());
  std::printf("rebuild over %zu customers: %.3f%% RMSPE at %.2f%% space\n",
              all.rows(), 100.0 * tsc::Rmspe(all, *rebuilt),
              options.space_percent);
  return 0;
}
