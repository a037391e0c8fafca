// End-to-end serving comparison — the operational story behind the
// paper's Section 1 motivation. One mixed ad hoc workload (single-cell
// probes + avg aggregates over ~5% regions) is answered three ways:
//
//   raw file        the uncompressed matrix on disk; cells cost one
//                   block read, aggregates read every selected row
//   svdd disk       the paper's serving layout (U on disk, V + deltas
//                   pinned); cells cost one block read of a file ~20x
//                   smaller, aggregates one U-row read per selected row
//   svdd memory     the whole model in memory (possible exactly because
//                   it is 5% of the raw size); zero disk accesses
//
// Reported: footprint, simulated disk accesses, wall time, and the
// aggregate accuracy sacrificed for the speed.
//
// A second section times the serving-path itself against the in-memory
// model: the seed's per-cell reconstruction formula and the dispatched
// per-cell API (cell QPS each),
// plus the aggregate workload through QueryExecutor at 1 and N threads,
// and the same aggregates served by row scan vs the compressed-domain
// identity, whose row mass comes from U's block sums, both in memory and
// from the disk layout.
//
// Flags: --rows=5000 --space=5 --cells=500 --aggregates=25
//        --probe_iters=50 --threads=4

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "common/bench_datasets.h"
#include "common/json_reporter.h"
#include "core/disk_backed.h"
#include "core/query.h"
#include "core/svdd_compressor.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/row_store.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

struct Workload {
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  std::vector<tsc::RegionQuery> aggregates;
  std::vector<double> exact_answers;
};

Workload MakeWorkload(const tsc::Matrix& x, int cells, int aggregates) {
  Workload workload;
  tsc::Rng rng(404);
  for (int q = 0; q < cells; ++q) {
    workload.cells.emplace_back(rng.UniformUint64(x.rows()),
                                rng.UniformUint64(x.cols()));
  }
  for (int q = 0; q < aggregates; ++q) {
    workload.aggregates.push_back(tsc::MakeRandomRegionQuery(
        x.rows(), x.cols(), 0.05, tsc::AggregateFn::kAvg, &rng));
    workload.exact_answers.push_back(
        tsc::EvaluateAggregate(x, workload.aggregates.back()));
  }
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t rows = static_cast<std::size_t>(flags.GetInt("rows", 5000));
  const double space = flags.GetDouble("space", 5.0);
  const int cells = static_cast<int>(flags.GetInt("cells", 500));
  const int aggregates = static_cast<int>(flags.GetInt("aggregates", 25));
  const int probe_iters = static_cast<int>(flags.GetInt("probe_iters", 50));
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 4));
  const std::string json_path = flags.GetString("json", "");

  std::printf("=== ad hoc serving: raw disk vs SVDD layouts ===\n\n");
  const tsc::Dataset dataset = tsc::bench::MakePhoneDataset(rows);
  const tsc::Matrix& x = dataset.values;
  std::printf("%s", tsc::bench::DatasetBanner(dataset).c_str());
  std::printf("workload: %d cell probes + %d avg aggregates (~5%% regions)\n\n",
              cells, aggregates);
  const Workload workload = MakeWorkload(x, cells, aggregates);

  const tsc::bench::TempMatrixFile raw_file(x, "throughput_raw");
  const auto model = tsc::bench::BuildSvddAtSpace(x, space, 16);
  TSC_CHECK_OK(model.status());
  tsc::bench::TempSvddStore disk_store(*model, "throughput");

  tsc::TablePrinter table({"serving config", "footprint MB", "disk accesses",
                           "wall ms", "agg err%"});
  tsc::bench::JsonReporter report(
      "query_throughput",
      {"config", "footprint_mb", "disk_accesses", "wall_ms", "agg_err_pct"});
  report.AddScalar("rows", static_cast<double>(rows));
  report.AddScalar("space_pct", space);
  report.AddScalar("cell_probes", static_cast<double>(cells));
  report.AddScalar("aggregates", static_cast<double>(aggregates));

  // --- raw file -----------------------------------------------------------
  {
    auto reader = tsc::RowStoreReader::Open(raw_file.path());
    TSC_CHECK_OK(reader.status());
    tsc::Timer timer;
    for (const auto& [i, j] : workload.cells) {
      TSC_CHECK_OK(reader->ReadCell(i, j).status());
    }
    std::vector<double> row(x.cols());
    tsc::RunningStats err;
    for (std::size_t q = 0; q < workload.aggregates.size(); ++q) {
      const tsc::RegionQuery& query = workload.aggregates[q];
      tsc::RunningStats agg;
      for (const std::size_t i : query.row_ids) {
        TSC_CHECK_OK(reader->ReadRow(i, row));
        for (const std::size_t j : query.col_ids) agg.Add(row[j]);
      }
      err.Add(tsc::QueryError(workload.exact_answers[q], agg.mean()));
    }
    const double wall_ms = timer.ElapsedMillis();
    table.AddRow({"raw file on disk",
                  tsc::TablePrinter::Num(reader->file_bytes() / 1e6),
                  std::to_string(reader->counter().accesses()),
                  tsc::TablePrinter::Num(wall_ms, 4),
                  tsc::TablePrinter::Percent(100.0 * err.mean())});
    report.AddRow({"raw file on disk",
                   tsc::TablePrinter::Num(reader->file_bytes() / 1e6),
                   std::to_string(reader->counter().accesses()),
                   tsc::TablePrinter::Num(wall_ms, 4),
                   tsc::TablePrinter::Num(100.0 * err.mean())});
  }

  // --- svdd, U on disk ------------------------------------------------------
  {
    tsc::DiskBackedStore& store = disk_store.store();
    tsc::Timer timer;
    for (const auto& [i, j] : workload.cells) {
      TSC_CHECK_OK(store.ReconstructCell(i, j).status());
    }
    std::vector<double> row(x.cols());
    tsc::RunningStats err;
    for (std::size_t q = 0; q < workload.aggregates.size(); ++q) {
      const tsc::RegionQuery& query = workload.aggregates[q];
      tsc::RunningStats agg;
      for (const std::size_t i : query.row_ids) {
        TSC_CHECK_OK(store.model().TryReconstructRow(i, row));
        for (const std::size_t j : query.col_ids) agg.Add(row[j]);
      }
      err.Add(tsc::QueryError(workload.exact_answers[q], agg.mean()));
    }
    const double footprint = store.u_bytes() / 1e6;
    const double wall_ms = timer.ElapsedMillis();
    table.AddRow({"svdd, U on disk", tsc::TablePrinter::Num(footprint),
                  std::to_string(store.disk_accesses()),
                  tsc::TablePrinter::Num(wall_ms, 4),
                  tsc::TablePrinter::Percent(100.0 * err.mean())});
    report.AddRow({"svdd, U on disk", tsc::TablePrinter::Num(footprint),
                   std::to_string(store.disk_accesses()),
                   tsc::TablePrinter::Num(wall_ms, 4),
                   tsc::TablePrinter::Num(100.0 * err.mean())});
  }

  // --- svdd fully in memory -------------------------------------------------
  {
    tsc::Timer timer;
    for (const auto& [i, j] : workload.cells) {
      (void)model->ReconstructCell(i, j);
    }
    tsc::RunningStats err;
    for (std::size_t q = 0; q < workload.aggregates.size(); ++q) {
      const double approx =
          tsc::EvaluateAggregate(*model, workload.aggregates[q]);
      err.Add(tsc::QueryError(workload.exact_answers[q], approx));
    }
    const double wall_ms = timer.ElapsedMillis();
    table.AddRow({"svdd in memory",
                  tsc::TablePrinter::Num(model->CompressedBytes() / 1e6),
                  "0", tsc::TablePrinter::Num(wall_ms, 4),
                  tsc::TablePrinter::Percent(100.0 * err.mean())});
    report.AddRow({"svdd in memory",
                   tsc::TablePrinter::Num(model->CompressedBytes() / 1e6),
                   "0", tsc::TablePrinter::Num(wall_ms, 4),
                   tsc::TablePrinter::Num(100.0 * err.mean())});
  }

  std::printf("%s\n", table.ToString().c_str());

  // --- serving-path micro-modes ---------------------------------------------
  // The same cell probes against the in-memory model, two ways. The
  // "seed per-cell" row reproduces the original per-cell formula (a
  // scalar loop over u(i,m)*sigma_m*v(j,m) plus a delta probe) so the
  // dispatched path is measured against a fixed baseline.
  double sink = 0.0;
  {
    const tsc::SvdModel& svd = model->svd();
    const std::size_t k = svd.k();

    const auto time_mode = [&](const auto& body) {
      body();  // warm-up pass
      tsc::Timer timer;
      for (int it = 0; it < probe_iters; ++it) body();
      return timer.ElapsedMillis();
    };
    const double probes =
        static_cast<double>(workload.cells.size()) * probe_iters;

    const double seed_ms = time_mode([&] {
      for (const auto& [i, j] : workload.cells) {
        double value = 0.0;
        for (std::size_t m = 0; m < k; ++m) {
          value += svd.u()(i, m) * svd.singular_values()[m] * svd.v()(j, m);
        }
        const auto delta = model->deltas()->Find(i, j);
        sink += delta.value_or(value);
      }
    });
    const double percell_ms = time_mode([&] {
      for (const auto& [i, j] : workload.cells) {
        sink += model->ReconstructCell(i, j);
      }
    });

    const double seed_qps = probes / (seed_ms / 1000.0);
    const double percell_qps = probes / (percell_ms / 1000.0);
    tsc::TablePrinter probe_table(
        {"cell-probe mode", "wall ms", "Mcells/s", "vs seed"});
    probe_table.AddRow({"seed per-cell formula",
                        tsc::TablePrinter::Num(seed_ms, 3),
                        tsc::TablePrinter::Num(seed_qps / 1e6, 3), "1.0x"});
    probe_table.AddRow({"dispatched per-cell",
                        tsc::TablePrinter::Num(percell_ms, 3),
                        tsc::TablePrinter::Num(percell_qps / 1e6, 3),
                        tsc::TablePrinter::Num(percell_qps / seed_qps, 2) +
                            "x"});
    std::printf("%s\n", probe_table.ToString().c_str());
    report.AddScalar("cell_qps_seed", seed_qps);
    report.AddScalar("cell_qps_percell", percell_qps);
  }

  // --- threaded aggregate execution -----------------------------------------
  // The aggregate workload through the query executor's batched scan at
  // one thread and at --threads; fixed-shard reduction keeps the answers
  // bit-identical, so only the wall time may differ.
  {
    const auto run_aggregates = [&](std::size_t num_threads, double* checksum) {
      tsc::QueryExecutor exec(&*model, num_threads);
      tsc::Timer timer;
      for (const tsc::RegionQuery& query : workload.aggregates) {
        tsc::QueryPlan plan;
        plan.row_runs = tsc::CoalesceIds(query.row_ids);
        plan.col_runs = tsc::CoalesceIds(query.col_ids);
        plan.aggregates = {tsc::AggregateFn::kAvg};
        plan.strategies = {tsc::ExecutionStrategy::kRowReconstruction};
        const auto result = exec.ExecutePlan(plan);
        TSC_CHECK_OK(result.status());
        *checksum += result->ValueAt(0, 0);
      }
      return timer.ElapsedMillis();
    };
    double sum1 = 0.0;
    double sum_n = 0.0;
    const double serial_ms = run_aggregates(1, &sum1);
    const double parallel_ms = run_aggregates(threads, &sum_n);
    TSC_CHECK(sum1 == sum_n);  // bitwise determinism across thread counts
    sink += sum1;
    tsc::TablePrinter agg_table(
        {"aggregate executor", "wall ms", "queries/s", "speedup"});
    agg_table.AddRow({"1 thread", tsc::TablePrinter::Num(serial_ms, 3),
                      tsc::TablePrinter::Num(aggregates / (serial_ms / 1000.0),
                                             4),
                      "1.0x"});
    agg_table.AddRow(
        {std::to_string(threads) + " threads",
         tsc::TablePrinter::Num(parallel_ms, 3),
         tsc::TablePrinter::Num(aggregates / (parallel_ms / 1000.0), 4),
         tsc::TablePrinter::Num(serial_ms / parallel_ms, 2) + "x"});
    std::printf("%s\n", agg_table.ToString().c_str());
    report.AddScalar("agg_threads", static_cast<double>(threads));
    report.AddScalar("agg_serial_ms", serial_ms);
    report.AddScalar("agg_parallel_ms", parallel_ms);
  }

  // --- compressed-domain vs scan aggregate serving --------------------------
  // The same avg-aggregate workload answered two ways through one
  // executor: full row reconstruction (the scan baseline) and the
  // compressed-domain identity, which takes the selected rows' U mass
  // from U's block sums. Run against the in-memory model ("agg_*") and
  // the disk layout ("agg_disk_*": block sums built at Open, a run's
  // ragged end rows read from the U file). Work is metered by the process
  // counters the modes charge: rows scanned for the scan path, k-vectors
  // read for the block sums. Answers must agree to fp-reassociation
  // tolerance; the compressed domain charges ZERO row scans, so the
  // >= 5x rows_scanned gate holds with room to spare.
  {
    tsc::obs::MetricRegistry& registry = tsc::obs::MetricRegistry::Default();
    tsc::obs::Counter& rows_counter = registry.GetCounter("query.rows_scanned");
    tsc::obs::Counter& nodes_counter = registry.GetCounter("agg.nodes_read");

    struct ModeResult {
      double qps = 0.0;
      std::uint64_t rows_scanned = 0;  // per workload pass
      std::uint64_t nodes_read = 0;    // per workload pass
      std::vector<double> answers;
    };
    const auto run_mode = [&](const tsc::QueryExecutor& exec,
                              tsc::ExecutionStrategy strategy, int reps) {
      ModeResult mode;
      const std::uint64_t rows_before = rows_counter.Value();
      const std::uint64_t nodes_before = nodes_counter.Value();
      tsc::Timer timer;
      for (int rep = 0; rep < reps; ++rep) {
        for (const tsc::RegionQuery& query : workload.aggregates) {
          tsc::QueryPlan plan;
          plan.row_runs = tsc::CoalesceIds(query.row_ids);
          plan.col_runs = tsc::CoalesceIds(query.col_ids);
          plan.aggregates = {tsc::AggregateFn::kAvg};
          plan.strategies = {strategy};
          const auto result = exec.ExecutePlan(plan);
          TSC_CHECK_OK(result.status());
          if (rep == 0) mode.answers.push_back(result->ValueAt(0, 0));
          sink += result->ValueAt(0, 0);
        }
      }
      const double wall_s = timer.ElapsedMillis() / 1000.0;
      const double executed =
          static_cast<double>(workload.aggregates.size()) * reps;
      mode.qps = wall_s > 0 ? executed / wall_s : 0.0;
      const std::uint64_t ureps = static_cast<std::uint64_t>(reps);
      mode.rows_scanned = (rows_counter.Value() - rows_before) / ureps;
      mode.nodes_read = (nodes_counter.Value() - nodes_before) / ureps;
      return mode;
    };

    const auto compare_modes = [&](const tsc::QueryExecutor& exec,
                                   const std::string& prefix,
                                   const char* layout) {
      // The scan pass reads every selected row, so it gets fewer reps.
      const ModeResult scan =
          run_mode(exec, tsc::ExecutionStrategy::kRowReconstruction,
                   std::max(1, probe_iters / 10));
      const ModeResult compressed = run_mode(
          exec, tsc::ExecutionStrategy::kCompressedDomain, probe_iters);

      double max_rel_diff = 0.0;
      for (std::size_t q = 0; q < scan.answers.size(); ++q) {
        const double denom = std::max(std::abs(scan.answers[q]), 1e-12);
        max_rel_diff = std::max(
            max_rel_diff,
            std::abs(compressed.answers[q] - scan.answers[q]) / denom);
      }

      tsc::TablePrinter mode_table({std::string("aggregate mode, ") + layout,
                                    "queries/s", "rows scanned", "k-vectors",
                                    "vs scan"});
      const auto add_mode = [&](const char* name, const ModeResult& mode) {
        mode_table.AddRow(
            {name, tsc::TablePrinter::Num(mode.qps, 4),
             std::to_string(mode.rows_scanned),
             std::to_string(mode.nodes_read),
             tsc::TablePrinter::Num(scan.qps > 0 ? mode.qps / scan.qps : 0.0,
                                    2) +
                 "x"});
      };
      add_mode("row scan", scan);
      add_mode("compressed-domain", compressed);
      std::printf("%s\n", mode_table.ToString().c_str());
      std::printf("compressed-domain vs scan (%s): %.2fx QPS, %llu -> %llu "
                  "rows scanned per pass, max rel answer diff %.3g\n\n",
                  layout, scan.qps > 0 ? compressed.qps / scan.qps : 0.0,
                  static_cast<unsigned long long>(scan.rows_scanned),
                  static_cast<unsigned long long>(compressed.rows_scanned),
                  max_rel_diff);

      report.AddScalar(prefix + "_scan_qps", scan.qps);
      report.AddScalar(prefix + "_compressed_qps", compressed.qps);
      report.AddScalar(prefix + "_scan_rows_scanned",
                       static_cast<double>(scan.rows_scanned));
      report.AddScalar(prefix + "_compressed_rows_scanned",
                       static_cast<double>(compressed.rows_scanned));
      report.AddScalar(prefix + "_compressed_nodes_read",
                       static_cast<double>(compressed.nodes_read));
      report.AddScalar(prefix + "_compressed_speedup_vs_scan",
                       scan.qps > 0 ? compressed.qps / scan.qps : 0.0);
      report.AddScalar(prefix + "_compressed_max_rel_diff", max_rel_diff);

      // Acceptance gates. Counters compile out under TSC_OBS_DISABLED, so
      // the rows_scanned gate only fires when the scan pass was metered.
      TSC_CHECK(max_rel_diff < 1e-6);
      if (scan.rows_scanned > 0) {
        TSC_CHECK(scan.rows_scanned >= 5 * std::max<std::uint64_t>(
                                               compressed.rows_scanned, 1));
      }
    };

    const tsc::QueryExecutor memory_exec(&*model);
    compare_modes(memory_exec, "agg", "in memory");
    const tsc::QueryExecutor disk_exec(&disk_store.store().model());
    compare_modes(disk_exec, "agg_disk", "U on disk");
  }
  // --- quantized U row store serving ----------------------------------------
  // The same disk-backed cell workload served from a U store at each
  // QuantScheme, every configuration given the SAME
  // block-cache byte budget (sized to ~1/4 of the f64 U file, so f64
  // thrashes while the narrow encodings mostly fit). The stream backend
  // makes each cache miss a real positional read, i.e. the disk access
  // the paper counts. Gate: int8 cell QPS >= 1.5x f64, and the
  // normalized max reconstruction error (SVDD deltas enabled, which were
  // selected against the QUANTIZED reconstruction) stays within
  // --quant_err_budget.
  {
    const double quant_err_budget = flags.GetDouble("quant_err_budget", 0.02);
    double absmax = 0.0;
    for (const double v : x.data()) absmax = std::max(absmax, std::abs(v));

    const auto probe_cells = [&](const tsc::DiskBackedStore& store) {
      for (const auto& [i, j] : workload.cells) {
        const auto value = store.ReconstructCell(i, j);
        TSC_CHECK_OK(value.status());
        sink += *value;
      }
    };

    tsc::TablePrinter quant_table({"u encoding", "u file KB", "bytes/row",
                                   "cache hit%", "Mcells/s", "vs f64",
                                   "max err"});
    std::size_t cache_blocks = 0;
    std::size_t f64_k = 0;
    double f64_qps = 0.0;
    double int8_qps = 0.0;
    double worst_err = 0.0;
    const tsc::QuantScheme schemes[] = {
        tsc::QuantScheme::kF64, tsc::QuantScheme::kF32, tsc::QuantScheme::kI16,
        tsc::QuantScheme::kI8};
    for (const tsc::QuantScheme scheme : schemes) {
      const char* name = tsc::QuantSchemeName(scheme);
      tsc::MatrixRowSource source(&x);
      tsc::SvddBuildOptions build;
      build.space_percent = space;
      build.max_candidates = 16;
      build.quant = scheme;
      // Same k for every encoding (the f64 build's k_opt), so the rows
      // carry the same components and only the bytes differ — the freed
      // budget goes to extra deltas, not extra components. (Left to the
      // optimizer, a quantized build buys a larger k instead; that axis
      // is covered by the space/accuracy tables in docs/performance.md.)
      build.forced_k = f64_k;
      const auto qmodel = tsc::BuildSvddModel(&source, build);
      TSC_CHECK_OK(qmodel.status());
      // Probe open: stream backend, no cache — just to size the shared
      // budget off the f64 file before the measured open.
      tsc::DiskBackedOptions opts;
      opts.io_backend = tsc::IoBackendKind::kStream;
      tsc::bench::TempSvddStore qtemp(
          *qmodel, std::string("throughput_") + name, opts);
      if (scheme == tsc::QuantScheme::kF64) {
        f64_k = qmodel->k();
        // Shared budget sized so the int8 U store just fits: the paper's
        // "keep the working set resident" regime, which the narrow
        // encodings reach and the wide ones miss.
        const std::uint64_t int8_bytes =
            32 + static_cast<std::uint64_t>(x.rows()) *
                     tsc::QuantRowStride(tsc::QuantScheme::kI8, f64_k);
        cache_blocks = static_cast<std::size_t>(
            int8_bytes / tsc::DiskAccessCounter::kDefaultBlockSize + 1);
      }
      opts.cache_blocks = cache_blocks;  // equal byte budget for every scheme
      qtemp.Reopen(opts);
      tsc::DiskBackedStore& qstore = qtemp.store();

      probe_cells(qstore);  // warm-up
      qstore.ResetCounters();
      tsc::Timer timer;
      for (int it = 0; it < probe_iters; ++it) probe_cells(qstore);
      const double wall_s = timer.ElapsedMillis() / 1000.0;
      const double qps =
          static_cast<double>(workload.cells.size()) * probe_iters / wall_s;
      const double hits = static_cast<double>(qstore.cache_hits());
      const double misses = static_cast<double>(qstore.disk_accesses());
      const double hit_pct =
          hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;

      // Full-sweep error through the fused row path, normalized by the
      // dataset's largest magnitude.
      double max_err = 0.0;
      std::vector<double> recon(x.cols());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        TSC_CHECK_OK(qstore.model().TryReconstructRow(i, recon));
        for (std::size_t j = 0; j < x.cols(); ++j) {
          max_err = std::max(max_err, std::abs(recon[j] - x(i, j)));
        }
      }
      const double norm_err = max_err / absmax;

      if (scheme == tsc::QuantScheme::kF64) f64_qps = qps;
      if (scheme == tsc::QuantScheme::kI8) int8_qps = qps;
      worst_err = std::max(worst_err, norm_err);
      quant_table.AddRow(
          {name, tsc::TablePrinter::Num(qstore.u_bytes() / 1024.0, 1),
           std::to_string(qstore.u_row_stride_bytes()),
           tsc::TablePrinter::Num(hit_pct, 1),
           tsc::TablePrinter::Num(qps / 1e6, 3),
           tsc::TablePrinter::Num(qps / (f64_qps > 0 ? f64_qps : qps), 2) +
               "x",
           tsc::TablePrinter::Num(norm_err, 4)});
      report.AddScalar(std::string("quant_cell_qps_") + name, qps);
      report.AddScalar(std::string("quant_max_err_") + name, norm_err);
      report.AddScalar(std::string("quant_u_file_bytes_") + name,
                       static_cast<double>(qstore.u_bytes()));
    }
    std::printf("quantized U serving, stream I/O, shared %zu-block cache "
                "(%.0f KB, sized to the int8 U store):\n%s\n",
                cache_blocks,
                cache_blocks * tsc::DiskAccessCounter::kDefaultBlockSize /
                    1024.0,
                quant_table.ToString().c_str());
    const double speedup = f64_qps > 0 ? int8_qps / f64_qps : 0.0;
    report.AddScalar("quant_cache_blocks", static_cast<double>(cache_blocks));
    report.AddScalar("quant_speedup_int8_vs_f64", speedup);
    report.AddScalar("quant_err_budget", quant_err_budget);
    std::printf("int8 vs f64 cell QPS: %.2fx (gate >= 1.5x); worst "
                "normalized max err %.4f (budget %.2f)\n\n",
                speedup, worst_err, quant_err_budget);
    TSC_CHECK(worst_err <= quant_err_budget);
  }

  if (sink == 0.12345) std::printf("%f\n", sink);  // defeat dead-code elim

  std::printf(
      "the point of the paper: the %s%% model answers the same workload\n"
      "with a ~%.0fx smaller footprint, so it stays on disk (or in\n"
      "memory) when the raw matrix cannot — at sub-percent aggregate "
      "error.\n",
      tsc::TablePrinter::Num(space).c_str(), 100.0 / space);
  if (!json_path.empty()) {
    TSC_CHECK_OK(report.WriteFile(json_path));
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}
