// Ablations for the design choices DESIGN.md calls out:
//   1. PC-vs-delta trade-off: forced k across the range vs the 3-pass
//      algorithm's k_opt (is the optimizer actually picking the minimum?).
//   2. Delta triplet encoding: 16-byte packed key vs 24-byte naive
//      (row, col, delta as three 8-byte values).
//   3. The paper's delta layout, a hash table with a Bloom filter in
//      front: hash-table probes saved vs filter memory, and lookup time
//      against the DeltaIndex the models serve from.
//   4. Eigensolver: Householder+QL vs cyclic Jacobi (build time and
//      agreement).
//   5. Clustering baseline: complete vs average vs single linkage vs
//      k-means at equal space.
//   6. Robust SVD (trimmed refit, the paper's future-work (b)) vs plain
//      SVD vs SVDD on spiked data: robustness protects the subspace,
//      deltas protect the worst case — they are complementary.
//   7. Zero-row filter (Section 6.2) on data with dead customers.
//   8. f64 vs f32 U at equal space, each model's file bytes beside the
//      bytes it is charged.
//   9. Cell deltas vs whole-row outlier storage — the Section 4.2 design
//      argument ("it is more reasonable to store the deltas for those
//      specific days, as opposed to treating the whole customer as an
//      outlier"), quantified.
//
// Flags: --phone_rows=1000  --space=10  --threads=N

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/clustering.h"
#include "bench_common.h"
#include "common/bench_datasets.h"
#include "core/metrics.h"
#include "core/robust_svd.h"
#include "core/row_outlier.h"
#include "core/zero_rows.h"
#include "storage/bloom_filter.h"
#include "storage/delta_table.h"
#include "storage/row_source.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tsc::bench {
namespace {

// Build threads for every ablation (--threads); the sharded build emits
// the same bytes at any value, so results are unchanged.
std::size_t g_threads = 1;

void AblateForcedK(const Matrix& x, double space) {
  std::printf("--- ablation 1: forced k vs optimized k_opt (s=%.3g%%) ---\n",
              space);
  SvddBuildDiagnostics diag;
  const auto optimized = BuildSvddAtSpace(x, space, 0, &diag, g_threads);
  if (!optimized.ok()) return;
  std::printf("k_opt chosen by the 3-pass algorithm: %zu (of k_max=%zu)\n",
              diag.k_opt, diag.k_max);

  TablePrinter table({"forced k", "RMSPE%", "deltas", "note"});
  const std::vector<std::size_t> ks = {1, diag.k_max / 4, diag.k_max / 2,
                                       (3 * diag.k_max) / 4, diag.k_max};
  double best_forced = 1e300;
  for (const std::size_t k : ks) {
    if (k == 0) continue;
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    options.forced_k = k;
    const auto model = BuildSvddModel(&source, options);
    if (!model.ok()) continue;
    const double rmspe = Rmspe(x, *model);
    best_forced = std::min(best_forced, rmspe);
    table.AddRow({std::to_string(k), TablePrinter::Percent(100.0 * rmspe),
                  std::to_string(model->delta_count()),
                  k == diag.k_opt ? "= k_opt" : ""});
  }
  const double optimized_rmspe = Rmspe(x, *optimized);
  table.AddRow({"k_opt=" + std::to_string(diag.k_opt),
                TablePrinter::Percent(100.0 * optimized_rmspe),
                std::to_string(optimized->delta_count()), "optimizer"});
  std::printf("%s", table.ToString().c_str());
  std::printf("optimizer within %.3g%% of the best forced k (should be ~0)\n\n",
              100.0 * (optimized_rmspe - best_forced) /
                  std::max(best_forced, 1e-12));
}

void AblateDeltaEncoding(const Matrix& x, double space) {
  std::printf("--- ablation 2: delta triplet encoding (s=%.3g%%) ---\n",
              space);
  TablePrinter table({"encoding", "bytes/delta", "deltas", "RMSPE%"});
  for (const std::uint64_t bytes : {16u, 24u}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    options.delta_bytes = bytes;
    const auto model = BuildSvddModel(&source, options);
    if (!model.ok()) continue;
    table.AddRow({bytes == 16 ? "packed key" : "naive (row,col,delta)",
                  std::to_string(bytes), std::to_string(model->delta_count()),
                  TablePrinter::Percent(100.0 * Rmspe(x, *model))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void AblateBloomFilter(const Matrix& x, double space) {
  std::printf("--- ablation 3: Bloom filter probe savings (s=%.3g%%) ---\n",
              space);
  const auto model = BuildSvddAtSpace(x, space, 0, nullptr, g_threads);
  if (!model.ok()) return;
  // The paper's layout, rebuilt from the model's deltas: a hash table,
  // optionally fronted by a 10 bits/key Bloom filter. The model itself
  // serves from its DeltaIndex, timed alongside.
  const std::shared_ptr<const DeltaIndex> index = model->deltas();
  DeltaTable table(index->size());
  BloomFilter filter(index->size(), 10.0);
  index->ForEach([&](std::size_t i, std::size_t j, double delta) {
    const std::uint64_t key = DeltaTable::CellKey(i, j, x.cols());
    table.Put(key, delta);
    filter.Add(key);
  });
  // Look up a fixed random set of cells and count hash-table probes
  // with the filter on and off.
  const std::size_t lookups = 200000;
  Rng rng(7);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  cells.reserve(lookups);
  for (std::size_t i = 0; i < lookups; ++i) {
    cells.emplace_back(rng.UniformUint64(x.rows()),
                       rng.UniformUint64(x.cols()));
  }
  double sink = 0.0;
  const auto timed_ns = [&](const auto& lookup) {
    Timer timer;
    for (const auto& [i, j] : cells) sink += lookup(i, j).value_or(0.0);
    return 1e9 * timer.ElapsedSeconds() / static_cast<double>(lookups);
  };

  table.ResetProbeCount();
  const double table_ns = timed_ns([&](std::size_t i, std::size_t j) {
    return table.Get(DeltaTable::CellKey(i, j, x.cols()));
  });
  const std::uint64_t probes_without = table.probe_count();
  table.ResetProbeCount();
  const double bloom_ns = timed_ns(
      [&](std::size_t i, std::size_t j) -> std::optional<double> {
        const std::uint64_t key = DeltaTable::CellKey(i, j, x.cols());
        if (!filter.MightContain(key)) return std::nullopt;
        return table.Get(key);
      });
  const std::uint64_t probes_with = table.probe_count();
  const double index_ns = timed_ns(
      [&](std::size_t i, std::size_t j) { return index->Find(i, j); });

  const double table_kb =
      static_cast<double>(table.bucket_count()) * 24.0 / 1024.0;
  TablePrinter out({"config", "table probes", "probes/lookup", "ns/lookup",
                    "memory KB"});
  out.AddRow({"hash table", std::to_string(probes_without),
              TablePrinter::Num(static_cast<double>(probes_without) / lookups),
              TablePrinter::Num(table_ns), TablePrinter::Num(table_kb)});
  out.AddRow({"hash + bloom (10 bits/key)", std::to_string(probes_with),
              TablePrinter::Num(static_cast<double>(probes_with) / lookups),
              TablePrinter::Num(bloom_ns),
              TablePrinter::Num(table_kb +
                                static_cast<double>(filter.SizeBytes()) /
                                    1024.0)});
  out.AddRow({"delta index (row CSR + checkpoints)", "-", "-",
              TablePrinter::Num(index_ns),
              TablePrinter::Num(static_cast<double>(index->RowIndexBytes() +
                                                    index->CheckpointBytes()) /
                                1024.0)});
  std::printf("%s(checksum %g)\n\n", out.ToString().c_str(), sink);
}

void AblateEigenSolver(const Matrix& x, double space) {
  std::printf("--- ablation 4: eigensolver choice (s=%.3g%%) ---\n", space);
  TablePrinter table({"solver", "build s", "RMSPE%"});
  for (const auto& [name, kind] :
       std::vector<std::pair<std::string, EigenSolverKind>>{
           {"householder+ql", EigenSolverKind::kHouseholderQl},
           {"cyclic jacobi", EigenSolverKind::kCyclicJacobi}}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    options.solver = kind;
    Timer timer;
    const auto model = BuildSvddModel(&source, options);
    if (!model.ok()) continue;
    table.AddRow({name, TablePrinter::Num(timer.ElapsedSeconds(), 3),
                  TablePrinter::Percent(100.0 * Rmspe(x, *model))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void AblateClusteringVariants(const Matrix& x, double space) {
  std::printf("--- ablation 5: clustering variants (s=%.3g%%) ---\n", space);
  const SpaceBudget budget =
      SpaceBudget::FromPercent(x.rows(), x.cols(), space);
  const std::size_t clusters =
      ClustersForBudget(x.rows(), x.cols(), budget.total_bytes);
  if (clusters == 0) return;
  TablePrinter table({"variant", "build s", "RMSPE%"});
  for (const auto& [name, linkage] :
       std::vector<std::pair<std::string, Linkage>>{
           {"hc complete (paper)", Linkage::kComplete},
           {"hc average", Linkage::kAverage},
           {"hc single", Linkage::kSingle}}) {
    Timer timer;
    const auto model = BuildHierarchicalClusterModel(x, clusters, linkage);
    if (!model.ok()) continue;
    table.AddRow({name, TablePrinter::Num(timer.ElapsedSeconds(), 3),
                  TablePrinter::Percent(100.0 * Rmspe(x, *model))});
  }
  {
    Timer timer;
    KMeansOptions options;
    options.num_clusters = clusters;
    const auto model = BuildKMeansClusterModel(x, options);
    if (model.ok()) {
      table.AddRow({"k-means++", TablePrinter::Num(timer.ElapsedSeconds(), 3),
                    TablePrinter::Percent(100.0 * Rmspe(x, *model))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void AblateRobustSvd(const Matrix& x, double space) {
  std::printf("--- ablation 6: robust SVD vs SVDD (s=%.3g%%) ---\n", space);
  const SpaceBudget budget =
      SpaceBudget::FromPercent(x.rows(), x.cols(), space);
  const std::size_t k = budget.MaxK();
  if (k == 0) return;

  TablePrinter table({"method", "RMSPE%", "worst norm%", "build s"});
  auto add = [&](const std::string& name, const CompressedStore& store,
                 double seconds) {
    const ErrorReport report = EvaluateErrors(x, store);
    table.AddRow({name, TablePrinter::Percent(100.0 * report.rmspe),
                  TablePrinter::Percent(100.0 * report.max_normalized_error),
                  TablePrinter::Num(seconds, 3)});
  };
  {
    MatrixRowSource source(&x);
    SvdBuildOptions options;
    options.k = k;
    options.num_threads = g_threads;
    Timer timer;
    const auto model = BuildSvdModel(&source, options);
    if (model.ok()) add("plain svd", *model, timer.ElapsedSeconds());
  }
  {
    MatrixRowSource source(&x);
    RobustSvdOptions options;
    options.k = k;
    options.iterations = 2;
    Timer timer;
    const auto model = BuildRobustSvdModel(&source, options);
    if (model.ok()) add("robust svd", *model, timer.ElapsedSeconds());
  }
  {
    Timer timer;
    const auto model = BuildSvddAtSpace(x, space, 0, nullptr, g_threads);
    if (model.ok()) add("svdd", *model, timer.ElapsedSeconds());
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("note: robust SVD lowers bulk error on clean cells but cannot\n"
              "represent the spikes; SVDD's deltas bound the worst case.\n\n");
}

void AblateZeroRowFilter(double space) {
  std::printf("--- ablation 7: zero-row filter, 25%% dead customers "
              "(s=%.3g%%) ---\n", space);
  PhoneDatasetConfig config;
  config.num_customers = 1500;
  config.num_days = 120;
  config.zero_customer_fraction = 0.25;
  config.seed = 5;
  const Matrix x = GeneratePhoneDataset(config).values;

  TablePrinter table({"config", "RMSPE%", "space%", "zero rows"});
  {
    const auto plain = BuildSvddAtSpace(x, space, 0, nullptr, g_threads);
    if (plain.ok()) {
      table.AddRow({"plain svdd",
                    TablePrinter::Percent(100.0 * Rmspe(x, *plain)),
                    TablePrinter::Percent(plain->SpacePercent()), "-"});
    }
  }
  {
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    const auto filtered = BuildZeroRowFilteredSvdd(x, options);
    if (filtered.ok()) {
      table.AddRow({"svdd + zero-row filter",
                    TablePrinter::Percent(100.0 * Rmspe(x, *filtered)),
                    TablePrinter::Percent(filtered->SpacePercent()),
                    std::to_string(filtered->zero_row_count())});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void AblateFloatEncoding(const Matrix& x, double space) {
  std::printf("--- ablation 8: f64 vs f32 U at equal space (s=%.3g%%) ---\n",
              space);
  TablePrinter table(
      {"U", "RMSPE%", "charged bytes", "file bytes", "k", "deltas"});
  for (const QuantScheme quant : {QuantScheme::kF64, QuantScheme::kF32}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    options.quant = quant;
    const auto model = BuildSvddModel(&source, options);
    if (!model.ok()) continue;
    const std::string path =
        TempPath(std::string("ablation8_") + QuantSchemeName(quant), ".model");
    TSC_CHECK_OK(model->SaveToFile(path));
    const std::uintmax_t file_bytes = std::filesystem::file_size(path);
    std::remove(path.c_str());
    table.AddRow({QuantSchemeName(quant),
                  TablePrinter::Percent(100.0 * Rmspe(x, *model)),
                  std::to_string(model->CompressedBytes()),
                  std::to_string(file_bytes), std::to_string(model->k()),
                  std::to_string(model->delta_count())});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("f32 stores each U coefficient in 4 bytes plus a 16-byte meta\n"
              "per row; the freed budget buys a larger k or more deltas. Each\n"
              "file holds what it is charged plus a fixed header.\n\n");
}

void AblateCandidateCap(const Matrix& x, double space) {
  std::printf("--- ablation 10: pass-2 candidate cap (s=%.3g%%) ---\n",
              space);
  std::printf("the paper evaluates every k in 1..k_max; capping the\n"
              "candidate set bounds the pass-2 priority-queue memory for\n"
              "huge N. how much quality does the cap cost?\n");
  TablePrinter table({"candidates", "k_opt", "RMSPE%", "peak queue entries"});
  for (const std::size_t cap : {2u, 4u, 8u, 16u, 0u}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    options.max_candidates = cap;
    SvddBuildDiagnostics diag;
    const auto model = BuildSvddModel(&source, options, &diag);
    if (!model.ok()) continue;
    std::uint64_t queue_entries = 0;
    for (const std::uint64_t g : diag.candidate_delta_counts) {
      queue_entries += g;
    }
    table.AddRow({cap == 0 ? "all (paper)" : std::to_string(cap),
                  std::to_string(diag.k_opt),
                  TablePrinter::Percent(100.0 * Rmspe(x, *model)),
                  std::to_string(queue_entries)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void AblateRowOutliers(const Matrix& x, double space) {
  std::printf("--- ablation 9: cell deltas vs whole-row outlier storage "
              "(s=%.3g%%) ---\n", space);
  TablePrinter table({"outlier granularity", "RMSPE%", "worst norm%",
                      "outliers repaired"});
  {
    const auto svdd = BuildSvddAtSpace(x, space, 0, nullptr, g_threads);
    if (svdd.ok()) {
      const ErrorReport report = EvaluateErrors(x, *svdd);
      table.AddRow({"cell deltas (SVDD)",
                    TablePrinter::Percent(100.0 * report.rmspe),
                    TablePrinter::Percent(100.0 * report.max_normalized_error),
                    std::to_string(svdd->delta_count()) + " cells"});
    }
  }
  {
    SvddBuildOptions options;
    options.space_percent = space;
    options.num_threads = g_threads;
    const auto rows = BuildRowOutlierModel(x, options);
    if (rows.ok()) {
      const ErrorReport report = EvaluateErrors(x, *rows);
      table.AddRow({"whole rows",
                    TablePrinter::Percent(100.0 * report.rmspe),
                    TablePrinter::Percent(100.0 * report.max_normalized_error),
                    std::to_string(rows->stored_row_count()) + " rows"});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace tsc::bench

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 1000));
  const double space = flags.GetDouble("space", 10.0);
  tsc::bench::g_threads =
      static_cast<std::size_t>(flags.GetInt("threads", 1));

  std::printf("=== SVDD design ablations ===\n\n");
  const tsc::Dataset dataset = tsc::bench::MakePhoneDataset(phone_rows);
  std::printf("%s\n", tsc::bench::DatasetBanner(dataset).c_str());
  tsc::bench::AblateForcedK(dataset.values, space);
  tsc::bench::AblateDeltaEncoding(dataset.values, space);
  tsc::bench::AblateBloomFilter(dataset.values, space);
  tsc::bench::AblateEigenSolver(dataset.values, space);
  tsc::bench::AblateClusteringVariants(dataset.values, space);
  tsc::bench::AblateRobustSvd(dataset.values, space);
  tsc::bench::AblateZeroRowFilter(space);
  tsc::bench::AblateFloatEncoding(dataset.values, space);
  tsc::bench::AblateRowOutliers(dataset.values, space);
  tsc::bench::AblateCandidateCap(dataset.values, space);
  return 0;
}
