#include "lib/visualization.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lib/ascii_plot.h"
#include "storage/row_source.h"
#include "util/logging.h"

namespace tsc {

ScatterPlotData ProjectToSvdSpace(const SvdModel& model) {
  TSC_CHECK_GE(model.k(), 1u);
  ScatterPlotData scatter;
  scatter.x.resize(model.rows());
  scatter.y.resize(model.rows(), 0.0);
  for (std::size_t i = 0; i < model.rows(); ++i) {
    const std::vector<double> coords = model.ProjectRow(i);
    scatter.x[i] = coords[0];
    if (coords.size() >= 2) scatter.y[i] = coords[1];
  }
  return scatter;
}

StatusOr<ScatterPlotData> ProjectDataset(const Matrix& data) {
  MatrixRowSource source(&data);
  SvdBuildOptions options;
  options.k = 2;
  TSC_ASSIGN_OR_RETURN(SvdModel model, BuildSvdModel(&source, options));
  return ProjectToSvdSpace(model);
}

std::vector<std::size_t> TopOutlierRows(const ScatterPlotData& scatter,
                                        std::size_t count) {
  const std::size_t n = scatter.x.size();
  double cx = 0.0;
  double cy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cx += scatter.x[i];
    cy += scatter.y[i];
  }
  if (n > 0) {
    cx /= static_cast<double>(n);
    cy /= static_cast<double>(n);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = std::hypot(scatter.x[a] - cx, scatter.y[a] - cy);
    const double db = std::hypot(scatter.x[b] - cx, scatter.y[b] - cy);
    return da > db;
  });
  order.resize(std::min(count, n));
  return order;
}

std::string RenderSvdScatter(const ScatterPlotData& scatter,
                             const std::string& title) {
  PlotOptions options;
  options.title = title;
  options.x_label = "1st principal component";
  options.y_label = "2nd principal component";
  return RenderScatter(scatter.x, scatter.y, options);
}

}  // namespace tsc
