#include "lib/visualization.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "storage/row_source.h"

namespace tsc {
namespace {

TEST(VisualizationTest, ProjectionDimensions) {
  const Dataset d = GenerateLowRankDataset(50, 10, 3, 1);
  const auto scatter = ProjectDataset(d.values);
  ASSERT_TRUE(scatter.ok());
  EXPECT_EQ(scatter->x.size(), 50u);
  EXPECT_EQ(scatter->y.size(), 50u);
}

TEST(VisualizationTest, ProjectionPreservesFirstComponentOrdering) {
  // For a rank-1 matrix rows are multiples of one pattern; the first SVD
  // coordinate must be proportional to each row's norm (up to global sign).
  Matrix x(20, 6);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      x(i, j) = static_cast<double>(i + 1) * (j + 1.0);
    }
  }
  const auto scatter = ProjectDataset(x);
  ASSERT_TRUE(scatter.ok());
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_NEAR(scatter->x[i] / scatter->x[0], static_cast<double>(i + 1),
                1e-6);
    EXPECT_NEAR(scatter->y[i], 0.0, 1e-6);
  }
}

TEST(VisualizationTest, SingleComponentModelHasZeroY) {
  const Dataset d = GenerateLowRankDataset(30, 8, 1, 2);
  MatrixRowSource source(&d.values);
  SvdBuildOptions options;
  options.k = 5;  // rank is 1, model truncates to 1
  const auto model = BuildSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->k(), 1u);
  const ScatterPlotData scatter = ProjectToSvdSpace(*model);
  for (const double y : scatter.y) EXPECT_EQ(y, 0.0);
}

TEST(VisualizationTest, TopOutliersAreFarthestFromCentroid) {
  ScatterPlotData scatter;
  scatter.x = {0.0, 0.1, -0.1, 10.0, 0.05};
  scatter.y = {0.0, 0.1, 0.0, 10.0, -0.1};
  const std::vector<std::size_t> outliers = TopOutlierRows(scatter, 2);
  ASSERT_EQ(outliers.size(), 2u);
  EXPECT_EQ(outliers[0], 3u);  // the (10, 10) point
}

TEST(VisualizationTest, TopOutliersCappedAtN) {
  ScatterPlotData scatter;
  scatter.x = {1.0, 2.0};
  scatter.y = {0.0, 0.0};
  EXPECT_EQ(TopOutlierRows(scatter, 10).size(), 2u);
}

TEST(VisualizationTest, RenderProducesPlot) {
  const Dataset d = GenerateLowRankDataset(40, 10, 2, 3);
  const auto scatter = ProjectDataset(d.values);
  ASSERT_TRUE(scatter.ok());
  const std::string plot = RenderSvdScatter(*scatter, "test scatter");
  EXPECT_NE(plot.find("test scatter"), std::string::npos);
  EXPECT_NE(plot.find('.'), std::string::npos);
}

}  // namespace
}  // namespace tsc
