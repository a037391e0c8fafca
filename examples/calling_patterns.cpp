// Warehouse scenario from the paper's introduction: a customer x day
// matrix of calling volume, too large to keep uncompressed, queried ad
// hoc by analysts. This example shows the full deployment path:
//
//   1. the raw dataset lives on "disk" as a row-major binary file;
//   2. the 3-pass SVDD build streams it without loading it in memory;
//   3. the compressed model is exported in the paper's disk layout
//      (U row-wise on disk, V + eigenvalues + deltas pinned in memory);
//   4. an analyst session issues the paper's two query classes — specific
//      cells and aggregates — and we count actual disk accesses.
//
//   $ ./examples/calling_patterns [--customers=5000] [--space=5]

#include <cstdio>
#include <string>
#include <vector>

#include "core/disk_backed.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "storage/row_store.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t customers =
      static_cast<std::size_t>(flags.GetInt("customers", 5000));
  const double space = flags.GetDouble("space", 5.0);

  // --- 1. Land the raw data on disk (a warehouse extract). -------------
  tsc::PhoneDatasetConfig config;
  config.num_customers = customers;
  config.num_days = 366;
  const tsc::Dataset dataset = tsc::GeneratePhoneDataset(config);
  const std::string raw_path = "/tmp/calling_patterns_raw.mat";
  TSC_CHECK_OK(tsc::SaveBinary(dataset, raw_path));
  std::printf("raw extract: %zu customers x %zu days -> %s (%.1f MB)\n",
              dataset.rows(), dataset.cols(), raw_path.c_str(),
              dataset.UncompressedBytes() / 1e6);

  // --- 2. Stream the 3-pass SVDD build from the file. ------------------
  auto reader = tsc::RowStoreReader::Open(raw_path);
  TSC_CHECK_OK(reader.status());
  tsc::FileRowSource source(std::move(*reader));
  tsc::SvddBuildOptions options;
  options.space_percent = space;
  options.max_candidates = 16;
  tsc::Timer build_timer;
  auto model = tsc::BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  std::printf("SVDD build: %.1fs, %zu passes over the file, "
              "k=%zu, deltas=%zu, %.2f%% of original size\n",
              build_timer.ElapsedSeconds(), source.passes_started(),
              model->k(), model->delta_count(), model->SpacePercent());

  // --- 3. Save the model; the file is also the query-serving layout. ---
  const std::string model_path = "/tmp/calling_patterns.model";
  TSC_CHECK_OK(model->SaveToFile(model_path));
  auto store = tsc::DiskBackedStore::Open(model_path);
  TSC_CHECK_OK(store.status());

  // --- 4. Analyst session. ---------------------------------------------
  std::printf("\n--- ad hoc session (exact answers from the raw file for "
              "comparison) ---\n");
  struct SessionQuery {
    std::string description;
    std::string spec;
  };
  const std::vector<SessionQuery> session = {
      {"total volume of the top-100 customer block, first week",
       "sum rows=0:99 cols=0:6"},
      {"average weekend volume (first 8 weekends), all customers",
       "avg rows=0:" + std::to_string(customers - 1) +
           " cols=5,6,12,13,19,20,26,27"},
      {"peak daily volume among customers 1000-1099 in December",
       "max rows=1000:1099 cols=334:365"},
      {"volume variability (stddev) of customer 7",
       "stddev rows=7 cols=0:365"},
  };
  for (const SessionQuery& sq : session) {
    const auto query = tsc::ParseRegionQuery(sq.spec);
    TSC_CHECK_OK(query.status());
    const double approx = tsc::EvaluateAggregate(*model, *query);
    const double exact = tsc::EvaluateAggregate(dataset.values, *query);
    std::printf("%-62s approx=%-12.4g exact=%-12.4g err=%.3f%%\n",
                sq.description.c_str(), approx, exact,
                100.0 * tsc::QueryError(exact, approx));
  }

  std::printf("\n--- specific-cell queries through the disk layout ---\n");
  store->ResetCounters();
  const std::vector<std::pair<std::size_t, std::size_t>> cells = {
      {12, 200}, {999, 45}, {3456 % customers, 365}, {1, 0}};
  for (const auto& [i, j] : cells) {
    const auto value = store->ReconstructCell(i, j);
    TSC_CHECK_OK(value.status());
    std::printf("customer %-5zu day %-3zu  approx=%-10.3f exact=%.3f\n", i, j,
                *value, dataset.values(i, j));
  }
  std::printf("disk accesses for %zu cell queries: %llu (1 per query, "
              "as Section 4.1 promises)\n",
              cells.size(),
              static_cast<unsigned long long>(store->disk_accesses()));
  return 0;
}
