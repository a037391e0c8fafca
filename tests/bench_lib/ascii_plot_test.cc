#include <gtest/gtest.h>

#include "lib/ascii_plot.h"

namespace tsc {
namespace {

TEST(AsciiPlotTest, RendersPoints) {
  Series s;
  s.name = "err";
  s.marker = 'o';
  s.x = {1.0, 2.0, 3.0};
  s.y = {10.0, 5.0, 1.0};
  PlotOptions options;
  options.title = "demo";
  const std::string out = RenderPlot({s}, options);
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("err"), std::string::npos);
}

TEST(AsciiPlotTest, EmptyInputIsHandled) {
  PlotOptions options;
  EXPECT_EQ(RenderPlot({}, options), "(no plottable points)\n");
}

TEST(AsciiPlotTest, LogScaleSkipsNonPositive) {
  Series s;
  s.x = {1.0, 2.0};
  s.y = {0.0, 100.0};  // y=0 unusable on log scale
  PlotOptions options;
  options.log_y = true;
  const std::string out = RenderPlot({s}, options);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlotTest, AllPointsUnusableOnLogScale) {
  Series s;
  s.x = {1.0};
  s.y = {-5.0};
  PlotOptions options;
  options.log_y = true;
  EXPECT_EQ(RenderPlot({s}, options), "(no plottable points)\n");
}

TEST(AsciiPlotTest, ScatterHelper) {
  PlotOptions options;
  const std::string out = RenderScatter({0, 1, 2}, {2, 1, 0}, options);
  EXPECT_NE(out.find('.'), std::string::npos);
}

}  // namespace
}  // namespace tsc
