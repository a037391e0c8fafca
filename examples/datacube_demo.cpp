// DataCube scenario from Section 6.1: a product x store x week array of
// sales figures, compressed for ad hoc cell access. Demonstrates both
// approaches the paper discusses — flattening two dimensions and running
// SVDD, and 3-mode PCA (Tucker) — on the same cube.
//
//   $ ./examples/datacube_demo [--space=15]

#include <cmath>
#include <cstdio>

#include "lib/datacube.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const double space = flags.GetDouble("space", 15.0);

  tsc::SalesCubeConfig config;
  config.num_products = 80;
  config.num_stores = 12;
  config.num_weeks = 26;
  const tsc::DataCube cube = tsc::GenerateSalesCube(config);
  std::printf("sales cube: %zu products x %zu stores x %zu weeks\n",
              cube.dim(0), cube.dim(1), cube.dim(2));

  // Flattening: keep products as rows, collapse (store, week) into
  // columns — the grouping with the most square resulting matrix, which
  // the paper recommends.
  tsc::SvddBuildOptions options;
  options.space_percent = space;
  auto flat = tsc::BuildCubeSvddModel(cube, /*mode=*/0, options);
  TSC_CHECK_OK(flat.status());

  // 3-mode PCA at comparable space.
  auto tucker = tsc::BuildTuckerModel(cube, {12, 6, 8});
  TSC_CHECK_OK(tucker.status());

  std::printf("flattened SVDD: %.2f%% space; Tucker: %.2f%% space\n",
              100.0 * flat->CompressedBytes() / (cube.size() * 8.0),
              100.0 * tucker->CompressedBytes() / (cube.size() * 8.0));

  // Ad hoc cube queries: single cells...
  std::printf("\ncell queries (product, store, week):\n");
  for (const auto& [p, s, w] : std::vector<std::array<std::size_t, 3>>{
           {3, 5, 10}, {42, 0, 25}, {79, 11, 0}}) {
    std::printf("  (%2zu,%2zu,%2zu)  exact=%-9.3f flatten=%-9.3f "
                "tucker=%.3f\n",
                p, s, w, cube(p, s, w), flat->ReconstructCell(p, s, w),
                tucker->ReconstructCell(p, s, w));
  }

  // ...and an aggregate: total sales of product 3 across all stores in
  // the first quarter (weeks 0-12).
  double exact = 0.0;
  double via_flat = 0.0;
  double via_tucker = 0.0;
  for (std::size_t s = 0; s < cube.dim(1); ++s) {
    for (std::size_t w = 0; w <= 12; ++w) {
      exact += cube(3, s, w);
      via_flat += flat->ReconstructCell(3, s, w);
      via_tucker += tucker->ReconstructCell(3, s, w);
    }
  }
  std::printf("\nQ1 sales of product 3: exact=%.1f  flatten=%.1f (err "
              "%.3f%%)  tucker=%.1f (err %.3f%%)\n",
              exact, via_flat, 100.0 * std::abs(via_flat - exact) / exact,
              via_tucker, 100.0 * std::abs(via_tucker - exact) / exact);
  return 0;
}
