// Reproduces Figure 9: normalized error of aggregate (avg) queries vs
// storage space for SVDD, with the single-cell RMSPE alongside for
// comparison, on the phone-style dataset. 50 random queries are drawn,
// each selecting random rows and columns covering ~10% of the cells
// (the paper's workload). A uniform row-sampling estimator is also run
// at matched space, the comparison Section 5.2 sketches.
//
// Expected shape: aggregate errors are far below cell errors (errors
// cancel), well under 0.5% at s=2%; uniform sampling is much worse on
// sum-type queries over skewed data.
//
// Flags: --space=1,2,5,10,15,20  --phone_rows=2000  --queries=50
//        --cell_fraction=0.1  --json=BENCH_fig9_aggregate_queries.json

#include <cstdio>
#include <vector>

#include "common/bench_datasets.h"
#include "common/json_reporter.h"
#include "core/metrics.h"
#include "core/query.h"
#include "lib/ascii_plot.h"
#include "lib/baselines/sampling.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::vector<double> spaces =
      flags.GetDoubleList("space", {1, 2, 5, 10, 15, 20});
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));
  const int num_queries = static_cast<int>(flags.GetInt("queries", 50));
  const double cell_fraction = flags.GetDouble("cell_fraction", 0.1);
  const std::string json_path = flags.GetString("json", "");

  std::printf("=== Figure 9: aggregate-query error vs space (SVDD) ===\n\n");
  const tsc::Dataset dataset = tsc::bench::MakePhoneDataset(phone_rows);
  const tsc::Matrix& x = dataset.values;
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());
  std::printf("%d random avg-queries, each covering ~%.0f%% of cells\n\n",
              num_queries, 100.0 * cell_fraction);

  // One fixed query workload reused across every space point.
  tsc::Rng rng(2024);
  std::vector<tsc::RegionQuery> queries;
  for (int q = 0; q < num_queries; ++q) {
    queries.push_back(tsc::MakeRandomRegionQuery(
        x.rows(), x.cols(), cell_fraction, tsc::AggregateFn::kAvg, &rng));
  }
  std::vector<double> exact(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    exact[q] = tsc::EvaluateAggregate(x, queries[q]);
  }

  tsc::TablePrinter table(
      {"s%", "avg Qerr%", "max Qerr%", "cell RMSPE%", "sampling Qerr%"});
  tsc::bench::JsonReporter report(
      "fig9_aggregate_queries",
      {"space_pct", "avg_qerr_pct", "max_qerr_pct", "cell_rmspe_pct",
       "sampling_qerr_pct"});
  report.AddScalar("phone_rows", static_cast<double>(phone_rows));
  report.AddScalar("queries", static_cast<double>(num_queries));
  report.AddScalar("cell_fraction", cell_fraction);
  tsc::Series agg_series{.name = "svdd aggregate", .marker = '+', .x = {}, .y = {}};
  tsc::Series cell_series{.name = "svdd single-cell", .marker = 'o', .x = {}, .y = {}};

  for (const double s : spaces) {
    const auto model = tsc::bench::BuildSvddAtSpace(x, s);
    if (!model.ok()) {
      std::printf("s=%.3g%%: %s\n", s, model.status().ToString().c_str());
      continue;
    }
    tsc::RunningStats qerr;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const double approx = tsc::EvaluateAggregate(*model, queries[q]);
      qerr.Add(tsc::QueryError(exact[q], approx));
    }
    const double rmspe = tsc::Rmspe(x, *model);

    // Sampling at the same space: fraction of rows such that
    // rows * M * b == budget.
    const double sample_fraction = s / 100.0;
    const tsc::SamplingEstimator sampler(&x, sample_fraction, 99);
    tsc::RunningStats sample_err;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto est = sampler.EstimateAggregate(queries[q]);
      if (est.ok()) sample_err.Add(tsc::QueryError(exact[q], *est));
    }

    table.AddRow({tsc::TablePrinter::Num(s),
                  tsc::TablePrinter::Percent(100.0 * qerr.mean()),
                  tsc::TablePrinter::Percent(100.0 * qerr.max()),
                  tsc::TablePrinter::Percent(100.0 * rmspe),
                  sample_err.count() > 0
                      ? tsc::TablePrinter::Percent(100.0 * sample_err.mean())
                      : std::string("-")});
    report.AddRow({tsc::TablePrinter::Num(s),
                   tsc::TablePrinter::Num(100.0 * qerr.mean()),
                   tsc::TablePrinter::Num(100.0 * qerr.max()),
                   tsc::TablePrinter::Num(100.0 * rmspe),
                   sample_err.count() > 0
                       ? tsc::TablePrinter::Num(100.0 * sample_err.mean())
                       : std::string("-")});
    agg_series.x.push_back(s);
    agg_series.y.push_back(100.0 * qerr.mean());
    cell_series.x.push_back(s);
    cell_series.y.push_back(100.0 * rmspe);
  }

  std::printf("%s\n", table.ToString().c_str());

  tsc::PlotOptions options;
  options.title = "Figure 9: query error vs space (log y)";
  options.x_label = "storage s%";
  options.y_label = "error %";
  options.log_y = true;
  std::printf("%s",
              tsc::RenderPlot({agg_series, cell_series}, options).c_str());
  if (!json_path.empty()) {
    TSC_CHECK_OK(report.WriteFile(json_path));
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}
