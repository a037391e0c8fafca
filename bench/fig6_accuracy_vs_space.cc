// Reproduces Figure 6 of Korn, Jagadish & Faloutsos (SIGMOD 1997):
// reconstruction error (RMSPE) vs disk storage space (s%) for hierarchical
// clustering, DCT, plain SVD and SVDD, on the phone-style and stock-style
// datasets.
//
// Expected shape (the paper's findings): SVDD best everywhere; SVD and
// clustering trade 2nd/3rd; DCT worst on phone data but competitive on
// stocks (random-walk correlation); all errors fall as s grows.
//
// Flags:
//   --space=1,2,5,10,15,20,25   s% sweep
//   --phone_rows=2000           phone dataset size
//   --skip_clustering           drop the quadratic baseline (fast runs)

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_datasets.h"
#include "core/metrics.h"
#include "core/space_budget.h"
#include "lib/ascii_plot.h"
#include "lib/baselines/clustering.h"
#include "lib/baselines/dct.h"
#include "lib/baselines/wavelet.h"
#include "storage/row_source.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tsc::bench {
namespace {

struct MethodResult {
  double space_percent = 0.0;  // achieved, not requested
  double rmspe = 0.0;
  bool ok = false;
};

MethodResult Evaluate(const Matrix& data, const CompressedStore& store) {
  MethodResult result;
  result.space_percent = store.SpacePercent();
  result.rmspe = Rmspe(data, store);
  result.ok = true;
  return result;
}

void RunDataset(const Dataset& dataset, const std::vector<double>& spaces,
                bool skip_clustering) {
  std::printf("%s", DatasetBanner(dataset).c_str());
  const Matrix& x = dataset.values;

  TablePrinter table({"s%", "hc", "dct", "haar", "svd", "svdd", "svdd_k",
                      "svdd_deltas"});
  std::map<std::string, Series> series;
  const std::map<std::string, char> markers = {
      {"hc", '+'}, {"dct", 'x'}, {"haar", 'w'}, {"svd", 'o'}, {"svdd", '#'}};
  for (const auto& [name, marker] : markers) {
    series[name].name = name;
    series[name].marker = marker;
  }

  for (const double s : spaces) {
    const SpaceBudget budget =
        SpaceBudget::FromPercent(x.rows(), x.cols(), s);

    MethodResult hc;
    if (!skip_clustering) {
      const std::size_t clusters =
          ClustersForBudget(x.rows(), x.cols(), budget.total_bytes);
      if (clusters > 0) {
        const auto model = BuildHierarchicalClusterModel(x, clusters);
        if (model.ok()) hc = Evaluate(x, *model);
      }
    }

    MethodResult dct;
    {
      const std::size_t k = budget.total_bytes / (x.rows() * 8);
      if (k > 0) {
        MatrixRowSource source(&x);
        const auto model = BuildDctModel(&source, k);
        if (model.ok()) dct = Evaluate(x, *model);
      }
    }

    MethodResult haar;
    {
      // Each retained wavelet coefficient costs b + 4 bytes (the index).
      const std::size_t k = budget.total_bytes / (x.rows() * (8 + 4));
      if (k > 0) {
        MatrixRowSource source(&x);
        const auto model = BuildHaarModel(&source, k);
        if (model.ok()) haar = Evaluate(x, *model);
      }
    }

    MethodResult svd;
    {
      const auto model = BuildSvdAtSpace(x, s);
      if (model.ok()) svd = Evaluate(x, *model);
    }

    MethodResult svdd;
    std::size_t svdd_k = 0;
    std::uint64_t svdd_deltas = 0;
    {
      SvddBuildDiagnostics diag;
      const auto model = BuildSvddAtSpace(x, s, /*max_candidates=*/0, &diag);
      if (model.ok()) {
        svdd = Evaluate(x, *model);
        svdd_k = diag.k_opt;
        svdd_deltas = diag.delta_count;
      }
    }

    auto cell = [](const MethodResult& r) {
      return r.ok ? TablePrinter::Percent(100.0 * r.rmspe) : std::string("-");
    };
    table.AddRow({TablePrinter::Num(s), cell(hc), cell(dct), cell(haar),
                  cell(svd), cell(svdd), std::to_string(svdd_k),
                  std::to_string(svdd_deltas)});
    for (const auto& [name, result] :
         std::map<std::string, MethodResult>{{"hc", hc},
                                             {"dct", dct},
                                             {"haar", haar},
                                             {"svd", svd},
                                             {"svdd", svdd}}) {
      if (result.ok) {
        series[name].x.push_back(s);
        series[name].y.push_back(100.0 * result.rmspe);
      }
    }
  }

  std::printf("RMSPE (percent of data stddev) by storage s%%:\n%s\n",
              table.ToString().c_str());
  PlotOptions options;
  options.title = "Figure 6 (" + dataset.name + "): RMSPE% vs s%";
  options.x_label = "storage s%";
  options.y_label = "RMSPE %";
  std::vector<Series> all;
  for (auto& [name, ser] : series) {
    if (!ser.x.empty()) all.push_back(ser);
  }
  std::printf("%s\n", RenderPlot(all, options).c_str());
}

}  // namespace
}  // namespace tsc::bench

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::vector<double> spaces =
      flags.GetDoubleList("space", {1, 2, 5, 10, 15, 20, 25});
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));
  const bool skip_clustering = flags.GetBool("skip_clustering", false);

  std::printf("=== Figure 6: accuracy vs space trade-off ===\n\n");
  tsc::Timer timer;
  tsc::bench::RunDataset(tsc::bench::MakePhoneDataset(phone_rows), spaces,
                         skip_clustering);
  tsc::bench::RunDataset(tsc::bench::MakeStockDataset(), spaces,
                         skip_clustering);
  std::printf("total time: %.1fs\n", timer.ElapsedSeconds());
  return 0;
}
