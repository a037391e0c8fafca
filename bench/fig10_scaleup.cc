// Reproduces Figure 10: SVDD reconstruction error (RMSPE) vs storage (s%)
// for increasing dataset sizes — the paper's phone1000 ... phone100K
// subsets. All subsets are prefixes of one generated 100k-customer
// population (matching the paper's "subsets of this dataset" protocol).
//
// Expected shape: the curves for different N lie nearly on top of each
// other (~2% error at 10% space), i.e. the method's accuracy is
// insensitive to dataset size.
//
// Default sizes stop at 20000 to keep the default run a few minutes on
// one core; pass --full for the complete 1k..100k sweep.
//
// Flags: --sizes=1000,2000,5000,10000,20000  --space=2,5,10,15,20
//        --full  --max_candidates=16  --threads=N

#include <algorithm>
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
  std::vector<std::int64_t> sizes =
      flags.GetIntList("sizes", {1000, 2000, 5000, 10000, 20000});
  if (flags.GetBool("full", false)) {
    sizes = {1000, 2000, 5000, 10000, 20000, 50000, 100000};
  }
  const std::vector<double> spaces =
      flags.GetDoubleList("space", {2, 5, 10, 15, 20});
  const std::size_t max_candidates =
      static_cast<std::size_t>(flags.GetInt("max_candidates", 16));
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 1));

  std::printf("=== Figure 10: SVDD scale-up (RMSPE vs s%% by N) ===\n\n");
  const std::size_t max_n = static_cast<std::size_t>(
      *std::max_element(sizes.begin(), sizes.end()));
  tsc::Timer gen_timer;
  const tsc::Dataset full = tsc::bench::MakePhoneDataset(max_n);
  std::printf("generated %s in %.1fs\n\n", full.name.c_str(),
              gen_timer.ElapsedSeconds());

  tsc::TablePrinter table({"N", "s%", "RMSPE%", "k_opt", "deltas",
                           "build_s"});
  std::vector<tsc::Series> series;
  const char markers[] = {'1', '2', '5', 'a', 'b', 'c', 'd'};

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t n = static_cast<std::size_t>(sizes[si]);
    const tsc::Dataset subset = full.Subset(n);
    tsc::Series ser;
    ser.name = "N=" + std::to_string(n);
    ser.marker = markers[si % sizeof(markers)];
    for (const double s : spaces) {
      tsc::Timer timer;
      tsc::SvddBuildDiagnostics diag;
      const auto model = tsc::bench::BuildSvddAtSpace(
          subset.values, s, max_candidates, &diag, threads);
      if (!model.ok()) {
        std::printf("N=%zu s=%.3g%%: %s\n", n, s,
                    model.status().ToString().c_str());
        continue;
      }
      const double rmspe = tsc::Rmspe(subset.values, *model);
      table.AddRow({std::to_string(n), tsc::TablePrinter::Num(s),
                    tsc::TablePrinter::Percent(100.0 * rmspe),
                    std::to_string(diag.k_opt),
                    std::to_string(diag.delta_count),
                    tsc::TablePrinter::Num(timer.ElapsedSeconds(), 3)});
      ser.x.push_back(s);
      ser.y.push_back(100.0 * rmspe);
    }
    series.push_back(std::move(ser));
  }

  std::printf("%s\n", table.ToString().c_str());
  tsc::PlotOptions options;
  options.title = "Figure 10: RMSPE% vs s% for increasing N (curves overlap)";
  options.x_label = "storage s%";
  options.y_label = "RMSPE %";
  std::printf("%s", tsc::RenderPlot(series, options).c_str());
  return 0;
}
