// Reproduces Figure 8: the distribution of per-cell absolute errors for
// plain SVD at 10% storage on the phone-style dataset — cells rank-ordered
// by reconstruction error, log-scale Y, first 50,000 cells.
//
// Expected shape: a steep initial drop spanning orders of magnitude (only
// a few cells approach the worst case), which is exactly why recording a
// handful of deltas (SVDD) bounds the worst case cheaply. The harness also
// prints the mean vs median gap the paper highlights.
//
// Flags: --space=10  --phone_rows=2000  --cells=50000

#include <cstdio>
#include <vector>

#include "common/bench_datasets.h"
#include "core/metrics.h"
#include "lib/ascii_plot.h"
#include "util/flags.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const double space = flags.GetDouble("space", 10.0);
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));
  const std::size_t cells =
      static_cast<std::size_t>(flags.GetInt("cells", 50000));

  std::printf("=== Figure 8: rank-ordered cell errors, plain SVD ===\n\n");
  const tsc::Dataset dataset = tsc::bench::MakePhoneDataset(phone_rows);
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());

  const auto model = tsc::bench::BuildSvdAtSpace(dataset.values, space);
  if (!model.ok()) {
    std::printf("build failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("plain SVD at s=%.3g%% keeps k=%zu principal components\n\n",
              space, model->k());

  const std::vector<double> errors =
      tsc::CellErrorsSortedDescending(dataset.values, *model, cells);

  // Percentile table of the plotted prefix.
  tsc::TablePrinter table({"rank", "abs error"});
  for (const double frac : {0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        frac * static_cast<double>(errors.size() - 1));
    table.AddRow({std::to_string(rank + 1),
                  tsc::TablePrinter::Num(errors[rank])});
  }
  std::printf("error at selected ranks (of the %zu worst cells):\n%s\n",
              errors.size(), table.ToString().c_str());

  // The mean-vs-median observation of Section 5.1.
  const tsc::ErrorReport report = tsc::EvaluateErrors(dataset.values, *model);
  std::printf("mean |err| = %.4g, median |err| = %.4g (ratio %.1fx)\n\n",
              report.mean_abs_error, report.median_abs_error,
              report.mean_abs_error /
                  std::max(report.median_abs_error, 1e-300));

  tsc::Series series{.name = "svd cell error", .marker = '*', .x = {}, .y = {}};
  // Subsample ranks uniformly for the plot.
  const std::size_t stride = std::max<std::size_t>(1, errors.size() / 400);
  for (std::size_t r = 0; r < errors.size(); r += stride) {
    series.x.push_back(static_cast<double>(r + 1));
    series.y.push_back(errors[r]);
  }
  tsc::PlotOptions options;
  options.title = "Figure 8: |error| by cell rank (log y)";
  options.x_label = "cell rank (by error)";
  options.y_label = "abs error";
  options.log_y = true;
  std::printf("%s", tsc::RenderPlot({series}, options).c_str());
  return 0;
}
