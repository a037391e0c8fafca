// Reproduces Appendix A (Figure 11): scatter plots of both datasets in
// 2-d SVD space — each sequence mapped to its coordinates along the first
// two principal components — plus the outlier lists an analyst would
// examine.
//
// Expected shape: phone data hugs the origin with a few huge-volume
// exceptions (skewed, Zipf-like customers); stock data stretches along
// the first axis (all stocks follow the market factor).
//
// Flags: --phone_rows=2000  --outliers=5

#include <cstdio>

#include "common/bench_datasets.h"
#include "lib/visualization.h"
#include "util/flags.h"

namespace {

void Show(const tsc::Dataset& dataset, std::size_t outlier_count) {
  const auto scatter = tsc::ProjectDataset(dataset.values);
  if (!scatter.ok()) {
    std::printf("%s: projection failed: %s\n", dataset.name.c_str(),
                scatter.status().ToString().c_str());
    return;
  }
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());
  std::printf("%s\n",
              tsc::RenderSvdScatter(
                  *scatter, "Figure 11 (" + dataset.name + "): SVD space")
                  .c_str());
  const auto outliers = tsc::TopOutlierRows(*scatter, outlier_count);
  std::printf("top-%zu outliers (rows an analyst should examine):\n",
              outliers.size());
  for (const std::size_t row : outliers) {
    const std::string label =
        row < dataset.row_labels.size() ? dataset.row_labels[row]
                                        : std::to_string(row);
    std::printf("  %-12s at (%.4g, %.4g)\n", label.c_str(), scatter->x[row],
                scatter->y[row]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));
  const std::size_t outliers =
      static_cast<std::size_t>(flags.GetInt("outliers", 5));

  std::printf("=== Appendix A: dataset visualization in SVD space ===\n\n");
  Show(tsc::bench::MakePhoneDataset(phone_rows), outliers);
  Show(tsc::bench::MakeStockDataset(), outliers);
  return 0;
}
