// Section 6.1 extension: DataCube compression. Compares the paper's
// flattening approach (collapse two dimensions, run SVDD on the resulting
// matrix — one run per choice of retained mode) against 3-mode PCA
// (truncated Tucker via HOSVD), the "interesting open question" the paper
// leaves. All methods are matched on compressed size.
//
// Expected shape: the flattening that keeps the matrix "most square"
// compresses best among the flattenings (the paper's guidance); Tucker is
// competitive at equal space because it exploits all three modes.
//
// Flags: --products=60 --stores=16 --weeks=26 --space=15
// (defaults keep every unfolding's eigenproblem small enough for a
// single-core run; the collapsed-dimension product is the M of the
// 2-pass algorithm, exactly the "computable within available memory"
// constraint the paper discusses)

#include <cmath>
#include <cstdio>
#include <functional>

#include "lib/datacube.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

double CubeRmse(const tsc::DataCube& cube,
                const std::function<double(std::size_t, std::size_t,
                                           std::size_t)>& reconstruct) {
  double sse = 0.0;
  double denom = 0.0;
  double mean = 0.0;
  for (const double v : cube.data()) mean += v;
  mean /= static_cast<double>(cube.size());
  for (std::size_t i = 0; i < cube.dim(0); ++i) {
    for (std::size_t j = 0; j < cube.dim(1); ++j) {
      for (std::size_t k = 0; k < cube.dim(2); ++k) {
        const double err = reconstruct(i, j, k) - cube(i, j, k);
        sse += err * err;
        const double dev = cube(i, j, k) - mean;
        denom += dev * dev;
      }
    }
  }
  return std::sqrt(sse / std::max(denom, 1e-300));
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  tsc::SalesCubeConfig config;
  config.num_products = static_cast<std::size_t>(flags.GetInt("products", 60));
  config.num_stores = static_cast<std::size_t>(flags.GetInt("stores", 16));
  config.num_weeks = static_cast<std::size_t>(flags.GetInt("weeks", 26));
  const double space = flags.GetDouble("space", 15.0);

  std::printf("=== DataCube compression (Section 6.1 extension) ===\n\n");
  const tsc::DataCube cube = tsc::GenerateSalesCube(config);
  const double raw_bytes = static_cast<double>(cube.size()) * 8.0;
  std::printf("cube: %zu products x %zu stores x %zu weeks (%.2f MB raw), "
              "target space %.3g%%\n\n",
              cube.dim(0), cube.dim(1), cube.dim(2), raw_bytes / 1e6, space);

  tsc::TablePrinter table({"method", "shape", "RMSPE%", "space%", "build s"});

  // Flattening per mode: SVDD over the mode-n unfolding.
  const char* mode_names[3] = {"product x (store*week)",
                               "store x (product*week)",
                               "week x (product*store)"};
  for (std::size_t mode = 0; mode < 3; ++mode) {
    tsc::SvddBuildOptions options;
    options.space_percent = space;
    tsc::Timer timer;
    const auto model = tsc::BuildCubeSvddModel(cube, mode, options);
    if (!model.ok()) {
      table.AddRow({"svdd flatten mode " + std::to_string(mode),
                    mode_names[mode], "-", "-",
                    model.status().ToString()});
      continue;
    }
    const double rmspe = CubeRmse(
        cube, [&](std::size_t i, std::size_t j, std::size_t k) {
          return model->ReconstructCell(i, j, k);
        });
    table.AddRow({"svdd flatten mode " + std::to_string(mode),
                  mode_names[mode],
                  tsc::TablePrinter::Percent(100.0 * rmspe),
                  tsc::TablePrinter::Percent(
                      100.0 * model->CompressedBytes() / raw_bytes),
                  tsc::TablePrinter::Num(timer.ElapsedSeconds(), 3)});
  }

  // Tucker at matched space: choose balanced ranks whose footprint fits.
  {
    const std::uint64_t budget =
        static_cast<std::uint64_t>(raw_bytes * space / 100.0);
    std::array<std::size_t, 3> ranks = {1, 1, 1};
    for (;;) {
      std::array<std::size_t, 3> next = ranks;
      // Grow the smallest rank (relative to its dim) first.
      std::size_t grow = 0;
      double best_ratio = 2.0;
      for (std::size_t n = 0; n < 3; ++n) {
        const double ratio = static_cast<double>(ranks[n]) /
                             static_cast<double>(cube.dim(n));
        if (ranks[n] < cube.dim(n) && ratio < best_ratio) {
          best_ratio = ratio;
          grow = n;
        }
      }
      next[grow] += 1;
      const std::uint64_t bytes =
          (cube.dim(0) * next[0] + cube.dim(1) * next[1] +
           cube.dim(2) * next[2] + next[0] * next[1] * next[2]) *
          8;
      if (bytes > budget || next == ranks) break;
      ranks = next;
    }
    tsc::Timer timer;
    const auto model = tsc::BuildTuckerModel(cube, ranks);
    if (model.ok()) {
      const double rmspe = CubeRmse(
          cube, [&](std::size_t i, std::size_t j, std::size_t k) {
            return model->ReconstructCell(i, j, k);
          });
      char shape[64];
      std::snprintf(shape, sizeof(shape), "ranks (%zu,%zu,%zu)", ranks[0],
                    ranks[1], ranks[2]);
      table.AddRow({"3-mode PCA (Tucker)", shape,
                    tsc::TablePrinter::Percent(100.0 * rmspe),
                    tsc::TablePrinter::Percent(
                        100.0 * model->CompressedBytes() / raw_bytes),
                    tsc::TablePrinter::Num(timer.ElapsedSeconds(), 3)});
    }
  }

  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
