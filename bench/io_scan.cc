// I/O-engine throughput of the on-disk U row store, through its one
// engine (positional reads). "Cold" means a fresh reader and an empty
// application-level block cache per measurement; the OS page cache stays
// warm after the first pass, so the numbers isolate the engine overhead
// (syscalls, copies) rather than spindle latency.
//
// Three sections: a sequential ReadRow scan (rows/s and MB/s); a cold
// CachedRowReader probing random cell batches with demand reads; and a
// ReadQuantRow + decode + dot scan of the same matrix at each encoding.
//
// Flags: --rows=10000 --cols=366 --seed=42 --cache_blocks=1024
//        --batches=64 --batch_cells=256 --json=FILE

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json_reporter.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "storage/cached_row_reader.h"
#include "storage/row_store.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

struct ScanResult {
  double seconds = 0.0;
  double checksum = 0.0;  // consumed so the reads cannot be elided
};

ScanResult SequentialReadRow(const std::string& path) {
  auto reader = tsc::RowStoreReader::Open(path);
  TSC_CHECK(reader.ok());
  std::vector<double> row(reader->cols());
  ScanResult result;
  tsc::Timer timer;
  for (std::size_t i = 0; i < reader->rows(); ++i) {
    TSC_CHECK(reader->ReadRow(i, row).ok());
    result.checksum += row[0] + row[row.size() - 1];
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

/// One batched cell workload, replayed identically per configuration.
struct CellBatches {
  std::vector<std::vector<std::size_t>> batch_rows;  // per batch, with dups
};

CellBatches MakeBatches(std::size_t rows, std::size_t batches,
                        std::size_t batch_cells, std::uint64_t seed) {
  tsc::Rng rng(seed);
  CellBatches work;
  work.batch_rows.resize(batches);
  for (auto& batch : work.batch_rows) {
    batch.reserve(batch_cells);
    for (std::size_t c = 0; c < batch_cells; ++c) {
      batch.push_back(static_cast<std::size_t>(rng.UniformUint64(rows)));
    }
  }
  return work;
}

ScanResult ColdBatchedProbes(const std::string& path,
                             std::size_t cache_blocks,
                             const CellBatches& work) {
  auto reader = tsc::RowStoreReader::Open(path);
  TSC_CHECK(reader.ok());
  const std::size_t cols = reader->cols();
  tsc::CachedRowReader cached(std::move(*reader), cache_blocks);
  std::vector<double> row(cols);
  ScanResult result;
  tsc::Timer timer;
  for (const auto& batch : work.batch_rows) {
    for (const std::size_t r : batch) {
      TSC_CHECK(cached.ReadRow(r, row).ok());
      result.checksum += row[0];
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t rows =
      static_cast<std::size_t>(flags.GetInt("rows", 10000));
  const std::size_t cols = static_cast<std::size_t>(flags.GetInt("cols", 366));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::size_t cache_blocks =
      static_cast<std::size_t>(flags.GetInt("cache_blocks", 1024));
  const std::size_t batches =
      static_cast<std::size_t>(flags.GetInt("batches", 64));
  const std::size_t batch_cells =
      static_cast<std::size_t>(flags.GetInt("batch_cells", 256));
  const std::string json_path = flags.GetString("json", "");

  std::printf("=== I/O engine scan throughput (U row store) ===\n\n");

  tsc::PhoneDatasetConfig config;
  config.num_customers = rows;
  config.num_days = cols;
  config.seed = seed;
  const tsc::Dataset dataset = tsc::GeneratePhoneDataset(config);
  const tsc::bench::TempMatrixFile data_file(dataset.values, "io_scan");
  const std::string& path = data_file.path();
  const double payload_bytes =
      static_cast<double>(rows) * static_cast<double>(cols) * sizeof(double);
  std::printf("dataset: %zux%zu (%.1f MB), cache %zu blocks\n\n", rows, cols,
              payload_bytes / (1024.0 * 1024.0), cache_blocks);

  tsc::TablePrinter table(
      {"section", "mode", "seconds", "MB/s", "cells/s", "x"});
  tsc::bench::JsonReporter report(
      "io_scan",
      {"section", "mode", "seconds", "mb_per_s", "cells_per_s", "speedup"});
  report.AddScalar("rows", static_cast<double>(rows));
  report.AddScalar("cols", static_cast<double>(cols));
  report.AddScalar("payload_mb", payload_bytes / (1024.0 * 1024.0));
  report.AddScalar("cache_blocks", static_cast<double>(cache_blocks));
  report.AddScalar("batches", static_cast<double>(batches));
  report.AddScalar("batch_cells", static_cast<double>(batch_cells));

  const auto add = [&](const std::string& section, const std::string& mode,
                       double seconds, double mbs, double cells_s,
                       double speedup) {
    const std::string mb_cell =
        mbs > 0 ? tsc::TablePrinter::Num(mbs) : std::string("-");
    const std::string cells_cell =
        cells_s > 0 ? tsc::TablePrinter::Num(cells_s) : std::string("-");
    const std::string x_cell =
        speedup > 0 ? tsc::TablePrinter::Num(speedup, 4) : std::string("-");
    table.AddRow({section, mode, tsc::TablePrinter::Num(seconds, 3), mb_cell,
                  cells_cell, x_cell});
    report.AddRow({section, mode, tsc::TablePrinter::Num(seconds, 6), mb_cell,
                   cells_cell, x_cell});
  };

  // Warm the OS page cache once, so the timed scan measures engine
  // overhead rather than the first toucher's disk reads.
  (void)SequentialReadRow(path);

  const ScanResult plain = SequentialReadRow(path);
  add("seq", "readrow", plain.seconds,
      payload_bytes / (1024.0 * 1024.0) / plain.seconds, 0.0, 0.0);

  const CellBatches work = MakeBatches(rows, batches, batch_cells, seed + 1);
  const double total_cells =
      static_cast<double>(batches) * static_cast<double>(batch_cells);
  const ScanResult demand = ColdBatchedProbes(path, cache_blocks, work);
  add("batch", "demand", demand.seconds, 0.0, total_cells / demand.seconds,
      0.0);

  // --- quantized row scans --------------------------------------------------
  // The same matrix written at each QuantScheme and scanned the way the
  // model reads U rows (ReadQuantRow, decoded, then a dot): fewer file
  // bytes per row means proportionally fewer bytes moved, so the narrow
  // encodings scan faster at identical logical work.
  // Rows/s and the effective MB/s are both reported; `x` is rows/s over
  // the f64 scan.
  {
    std::vector<double> probe_vec(cols);
    tsc::Rng probe_rng(seed + 2);
    for (double& v : probe_vec) v = probe_rng.Gaussian();
    double quant_baseline = 0.0;
    const tsc::QuantScheme schemes[] = {
        tsc::QuantScheme::kF64, tsc::QuantScheme::kF32,
        tsc::QuantScheme::kI16, tsc::QuantScheme::kI8};
    for (const tsc::QuantScheme scheme : schemes) {
      const char* qname = tsc::QuantSchemeName(scheme);
      const tsc::bench::TempMatrixFile quant_file(
          dataset.values, std::string("io_scan_") + qname, scheme);
      auto reader = tsc::RowStoreReader::Open(quant_file.path());
      TSC_CHECK(reader.ok());
      std::vector<std::uint8_t> scratch(reader->row_stride_bytes());
      std::vector<double> decoded(cols);
      double checksum = 0.0;
      tsc::Timer timer;
      for (std::size_t i = 0; i < reader->rows(); ++i) {
        auto view = reader->ReadQuantRow(i, scratch);
        TSC_CHECK(view.ok());
        tsc::DecodeQuantRow(*view, decoded);
        checksum += tsc::kernels::Dot(decoded.data(), probe_vec.data(), cols);
      }
      const double seconds = timer.ElapsedSeconds();
      if (checksum == 0.12345) std::printf("%f\n", checksum);
      if (scheme == tsc::QuantScheme::kF64) quant_baseline = seconds;
      const double file_mb =
          static_cast<double>(reader->file_bytes()) / (1024.0 * 1024.0);
      add("quant", std::string("decoded-") + qname, seconds, file_mb / seconds, 0.0,
          (quant_baseline > 0 ? quant_baseline : 1e-9) / seconds);
      report.AddScalar(std::string("quant_scan_rows_per_s_") + qname,
                       static_cast<double>(rows) / seconds);
    }
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf("quant x = speedup over the f64 scan.\n");

  if (!json_path.empty()) {
    const tsc::Status status = report.WriteFile(json_path);
    if (!status.ok()) {
      std::printf("json write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  std::remove(path.c_str());
  return 0;
}
