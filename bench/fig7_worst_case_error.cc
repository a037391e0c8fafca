// Reproduces Table 3 and Figure 7: worst-case error of a single matrix
// cell as a function of storage space, for plain SVD vs SVDD, on the
// phone-style dataset. Errors are reported both absolute and normalized
// by the dataset's standard deviation (the paper's Abs / Normalized
// columns).
//
// Expected shape: plain SVD's worst case stays enormous (hundreds of
// percent of a standard deviation) even at generous budgets, while SVDD
// bounds it to a few percent.
//
// Flags: --space=5,10,15,20,25  --phone_rows=2000

#include <cstdio>
#include <vector>

#include "common/bench_datasets.h"
#include "core/metrics.h"
#include "lib/ascii_plot.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::vector<double> spaces =
      flags.GetDoubleList("space", {5, 10, 15, 20, 25});
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));

  std::printf("=== Table 3 / Figure 7: worst-case single-cell error ===\n\n");
  const tsc::Dataset dataset = tsc::bench::MakePhoneDataset(phone_rows);
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());

  tsc::TablePrinter table({"s%", "svd abs", "svdd abs", "svd norm%",
                           "svdd norm%"});
  tsc::Series svd_series{.name = "svd", .marker = 'o', .x = {}, .y = {}};
  tsc::Series svdd_series{.name = "svdd", .marker = '#', .x = {}, .y = {}};

  tsc::Timer timer;
  for (const double s : spaces) {
    const auto svd = tsc::bench::BuildSvdAtSpace(dataset.values, s);
    const auto svdd = tsc::bench::BuildSvddAtSpace(dataset.values, s);
    if (!svd.ok() || !svdd.ok()) {
      std::printf("s=%.3g: build failed (budget too small)\n", s);
      continue;
    }
    const tsc::ErrorReport svd_report =
        tsc::EvaluateErrors(dataset.values, *svd);
    const tsc::ErrorReport svdd_report =
        tsc::EvaluateErrors(dataset.values, *svdd);
    table.AddRow({tsc::TablePrinter::Num(s),
                  tsc::TablePrinter::Num(svd_report.max_abs_error),
                  tsc::TablePrinter::Num(svdd_report.max_abs_error),
                  tsc::TablePrinter::Percent(
                      100.0 * svd_report.max_normalized_error),
                  tsc::TablePrinter::Percent(
                      100.0 * svdd_report.max_normalized_error)});
    svd_series.x.push_back(s);
    svd_series.y.push_back(100.0 * svd_report.max_normalized_error);
    svdd_series.x.push_back(s);
    svdd_series.y.push_back(100.0 * svdd_report.max_normalized_error);
  }

  std::printf("Worst-case error of any cell (cf. paper Table 3):\n%s\n",
              table.ToString().c_str());

  tsc::PlotOptions options;
  options.title = "Figure 7: normalized worst-case error vs storage";
  options.x_label = "storage s%";
  options.y_label = "max |err| / stddev, % (log)";
  options.log_y = true;
  std::printf("%s\n",
              tsc::RenderPlot({svd_series, svdd_series}, options).c_str());
  std::printf("total time: %.1fs\n", timer.ElapsedSeconds());
  return 0;
}
