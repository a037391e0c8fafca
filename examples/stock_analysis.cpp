// Financial-analysis scenario from the paper: a stock x day matrix of
// closing prices. Shows the "free" byproducts of SVD compression the
// paper highlights in Appendix A — 2-d visualization and outlier
// detection — plus a method comparison on this dataset (DCT is
// competitive here because prices are random-walk correlated).
//
//   $ ./examples/stock_analysis [--stocks=381] [--days=128] [--space=10]

#include <cstdio>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "lib/baselines/dct.h"
#include "lib/visualization.h"
#include "storage/row_source.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  tsc::StockDatasetConfig config;
  config.num_stocks = static_cast<std::size_t>(flags.GetInt("stocks", 381));
  config.num_days = static_cast<std::size_t>(flags.GetInt("days", 128));
  const double space = flags.GetDouble("space", 10.0);

  const tsc::Dataset dataset = tsc::GenerateStockDataset(config);
  std::printf("stock dataset: %zu stocks x %zu trading days\n",
              dataset.rows(), dataset.cols());

  // Compress with SVDD and with DCT at the same space budget.
  tsc::MatrixRowSource svdd_source(&dataset.values);
  tsc::SvddBuildOptions options;
  options.space_percent = space;
  auto svdd = tsc::BuildSvddModel(&svdd_source, options);
  TSC_CHECK_OK(svdd.status());

  const std::size_t dct_k = static_cast<std::size_t>(
      space / 100.0 * static_cast<double>(dataset.cols()));
  tsc::MatrixRowSource dct_source(&dataset.values);
  auto dct = tsc::BuildDctModel(&dct_source, std::max<std::size_t>(dct_k, 1));
  TSC_CHECK_OK(dct.status());

  std::printf("\nmethod comparison at ~%.3g%% space:\n", space);
  std::printf("  svdd: RMSPE=%.3f%% (k=%zu, %zu deltas)\n",
              100.0 * tsc::Rmspe(dataset.values, *svdd), svdd->k(),
              svdd->delta_count());
  std::printf("  dct : RMSPE=%.3f%% (%zu coefficients/row)\n",
              100.0 * tsc::Rmspe(dataset.values, *dct), dct->k());

  // Reconstruct one stock's full price series and report its worst day.
  const std::size_t stock = 123 % dataset.rows();
  std::vector<double> series(dataset.cols());
  svdd->ReconstructRow(stock, series);
  double worst_day_err = 0.0;
  std::size_t worst_day = 0;
  for (std::size_t d = 0; d < dataset.cols(); ++d) {
    const double err = std::abs(series[d] - dataset.values(stock, d));
    if (err > worst_day_err) {
      worst_day_err = err;
      worst_day = d;
    }
  }
  std::printf("\n%s reconstructed: worst day %zu off by $%.3f "
              "(price $%.2f)\n",
              dataset.row_labels[stock].c_str(), worst_day, worst_day_err,
              dataset.values(stock, worst_day));

  // Appendix A: the dataset in SVD space, plus the stocks an analyst
  // should look at (farthest from the market-factor axis).
  const tsc::ScatterPlotData scatter = tsc::ProjectToSvdSpace(svdd->svd());
  std::printf("\n%s\n",
              tsc::RenderSvdScatter(scatter, "stocks in SVD space").c_str());
  std::printf("exceptional stocks (farthest from the centroid in SVD "
              "space):\n");
  for (const std::size_t row : tsc::TopOutlierRows(scatter, 5)) {
    std::printf("  %-10s coords (%.4g, %.4g)\n",
                dataset.row_labels[row].c_str(), scatter.x[row],
                scatter.y[row]);
  }
  return 0;
}
