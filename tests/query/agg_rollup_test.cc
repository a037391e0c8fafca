// Property tests for the compressed-domain aggregates: the model's U
// block sums must give the naive per-row U mass at every block and
// superblock edge, and every compressed-domain answer must equal the
// scan executor's — exactly for count, to fp reassociation tolerance for
// sum/avg (documented in DESIGN.md §14) — across random regions,
// delta-patched cells, fold-ins and every quant scheme.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "cube/rollup.h"
#include "data/generators.h"
#include "query/executor.h"
#include "scan_only_store.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsc {
namespace {

// Both paths evaluate the same in-memory model (quantized schemes snap U
// before serving), so the only admissible difference is summation order.
constexpr double kRelTol = 1e-7;
constexpr double kAbsTol = 1e-8;

Matrix TestData() {
  PhoneDatasetConfig config;
  config.num_customers = 120;
  config.num_days = 36;
  config.spike_probability = 0.04;  // plenty of outliers -> deltas
  return GeneratePhoneDataset(config).values;
}

SvddModel BuildModel(const Matrix& data, QuantScheme quant) {
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 25.0;
  options.quant = quant;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

/// Random sorted disjoint multi-range selection over [0, extent), as the
/// query-language fragment "a:b,c:d".
std::string RandomRanges(Rng& rng, std::size_t extent) {
  const std::size_t pieces = 1 + rng.UniformUint64(2);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < pieces * 2; ++i) {
    cuts.push_back(rng.UniformUint64(extent));
  }
  std::sort(cuts.begin(), cuts.end());
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i + 1 < cuts.size(); i += 2) {
    // Leave a gap so consecutive ranges stay disjoint and non-adjacent.
    const std::size_t lo = cuts[i];
    const std::size_t hi = std::max(cuts[i + 1], lo);
    if (!first && lo == 0) continue;
    if (!first) out << ",";
    out << lo << ":" << hi;
    first = false;
    if (hi + 2 >= extent) break;
  }
  return out.str();
}

void ExpectSameAnswers(const QueryResult& fast, const QueryResult& scan,
                       const std::string& context) {
  ASSERT_EQ(fast.values.size(), scan.values.size()) << context;
  ASSERT_EQ(fast.aggregate_count, scan.aggregate_count) << context;
  for (std::size_t g = 0; g < fast.group_count(); ++g) {
    for (std::size_t a = 0; a < fast.aggregate_count; ++a) {
      EXPECT_NEAR(fast.ValueAt(g, a), scan.ValueAt(g, a),
                  kRelTol * std::abs(scan.ValueAt(g, a)) + kAbsTol)
          << context << " group " << g << " aggregate " << a;
    }
  }
}

TEST(CoalesceIdsTest, ProducesMaximalRuns) {
  const std::vector<std::size_t> ids = {0, 1, 2, 5, 7, 8, 20};
  const std::vector<IdRange> runs = CoalesceIds(ids);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0], (IdRange{0, 2}));
  EXPECT_EQ(runs[1], (IdRange{5, 5}));
  EXPECT_EQ(runs[2], (IdRange{7, 8}));
  EXPECT_EQ(runs[3], (IdRange{20, 20}));
  EXPECT_TRUE(CoalesceIds(std::vector<std::size_t>{}).empty());
  // Any order, repeats allowed: the same runs.
  const std::vector<std::size_t> shuffled = {20, 8, 1, 5, 0, 2, 7, 1, 20};
  EXPECT_EQ(CoalesceIds(shuffled), runs);
}

/// A model with random factors: U is N x k with entries in [-1, 1).
SvdModel RandomSvdModel(std::size_t n, std::size_t m, std::size_t k,
                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix u(n, k);
  for (double& x : u.data()) x = 2.0 * rng.UniformDouble() - 1.0;
  Matrix v(m, k);
  for (double& x : v.data()) x = 2.0 * rng.UniformDouble() - 1.0;
  std::vector<double> sv(k);
  for (std::size_t p = 0; p < k; ++p) sv[p] = 10.0 / static_cast<double>(p + 1);
  return SvdModel(std::move(u), std::move(sv), std::move(v));
}

/// Selections over [0, n): the full range, single rows at and beside
/// block and superblock edges, runs that straddle those edges, and
/// multi-run selections of them. Every selection is normalized.
std::vector<std::vector<IdRange>> EdgeSelections(std::size_t n, Rng& rng) {
  std::vector<std::vector<IdRange>> out = {{{0, n - 1}}};
  std::vector<std::size_t> edges = {0, n - 1};
  for (const std::size_t unit :
       {SvdModel::kRowBlock, SvdModel::kRowSuperblock}) {
    for (std::size_t e = unit; e < n; e += unit) {
      for (const std::size_t id : {e - 1, e, e + 1}) {
        if (id < n) edges.push_back(id);
      }
      if (edges.size() > 200) break;
    }
  }
  for (const std::size_t id : edges) out.push_back({{id, id}});
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<IdRange> ranges;
    const std::size_t runs = 1 + rng.UniformUint64(4);
    for (std::size_t r = 0; r < runs; ++r) {
      // Anchor each run at an edge so it straddles one.
      const std::size_t anchor = edges[rng.UniformUint64(edges.size())];
      const std::size_t reach = 1 + rng.UniformUint64(
          rng.UniformUint64(2) == 0 ? 2 * SvdModel::kRowBlock
                                    : 2 * SvdModel::kRowSuperblock);
      const std::size_t lo = anchor > reach / 2 ? anchor - reach / 2 : 0;
      ranges.push_back({lo, std::min(n - 1, lo + reach)});
    }
    out.push_back(NormalizeRanges(std::move(ranges)));
  }
  return out;
}

/// Checks AccumulateRowMass against a naive per-row sum over every
/// selection, and its reads against the per-run bound: at most 63 head
/// and 63 tail rows, 63 head and 63 tail blocks, and one read per
/// superblock the run covers.
void ExpectRowMassMatchesNaive(const SvdModel& model,
                               const std::string& context) {
  const std::size_t n = model.rows();
  const std::size_t k = model.k();
  Rng rng(n * 31 + k);
  for (const std::vector<IdRange>& runs : EdgeSelections(n, rng)) {
    std::vector<double> naive(k, 0.0);
    std::vector<double> magnitude(k, 0.0);
    std::uint64_t bound = 0;
    for (const IdRange& run : runs) {
      for (std::size_t i = run.lo; i <= run.hi; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
          naive[p] += model.u()(i, p);
          magnitude[p] += std::abs(model.u()(i, p));
        }
      }
      bound += 4 * 63 + (run.hi - run.lo + 1) / SvdModel::kRowSuperblock;
    }
    std::vector<double> mass(k, 0.0);
    const std::uint64_t reads = model.AccumulateRowMass(runs, mass).value();
    std::ostringstream where;
    where << context << " n=" << n << " runs:";
    for (const IdRange& run : runs) where << " " << run.lo << ":" << run.hi;
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_NEAR(mass[p], naive[p], 1e-12 * magnitude[p] + 1e-15)
          << where.str() << " component " << p;
    }
    EXPECT_LE(reads, bound) << where.str();
    EXPECT_GT(reads, 0u) << where.str();
  }
  // The full range reads nothing but superblocks, the last one short.
  std::vector<double> mass(k, 0.0);
  const IdRange all{0, n - 1};
  EXPECT_EQ(model.AccumulateRowMass({&all, 1}, mass).value(),
            (n + SvdModel::kRowSuperblock - 1) / SvdModel::kRowSuperblock)
      << context << " n=" << n;
}

class BlockSumsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSumsTest, RowMassMatchesNaiveSumAtEveryEdge) {
  ExpectRowMassMatchesNaive(RandomSvdModel(GetParam(), 7, 5, GetParam()),
                            "fresh");
}

TEST_P(BlockSumsTest, RowMassFollowsQuantization) {
  for (const QuantScheme scheme : {QuantScheme::kF64, QuantScheme::kF32,
                                   QuantScheme::kI16, QuantScheme::kI8}) {
    SvdModel model = RandomSvdModel(GetParam(), 7, 5, GetParam() + 1);
    model.ApplyQuantization(scheme);
    ExpectRowMassMatchesNaive(model, QuantSchemeName(scheme));
  }
  SvdModel model = RandomSvdModel(GetParam(), 7, 5, GetParam() + 2);
  model.ApplyQuantization(QuantScheme::kF32);
  ExpectRowMassMatchesNaive(model, "f32, second model");
}

INSTANTIATE_TEST_SUITE_P(RowCounts, BlockSumsTest,
                         ::testing::Values(1, 63, 64, 65, 4095, 4096, 4097,
                                           10000));

TEST(BlockSumsFoldInTest, RowMassCoversRowsFoldedAcrossEdges) {
  // 60 -> 70 rows crosses a block edge; 4090 -> 4100 a superblock edge.
  for (const std::size_t n : {std::size_t{60}, std::size_t{4090}}) {
    SvdModel model = RandomSvdModel(n, 7, 5, n);
    model.ApplyQuantization(QuantScheme::kI8);
    Matrix appended(10, model.cols());
    Rng rng(n);
    for (double& x : appended.data()) x = rng.UniformDouble();
    model.FoldInRows(appended);
    ASSERT_EQ(model.rows(), n + 10);
    ExpectRowMassMatchesNaive(model, "fold-in");
  }
}

TEST(AggregateHierarchyTest, RegionSumMatchesBruteForceReconstruction) {
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, QuantScheme::kF64);
  const auto hierarchy = AggregateHierarchy::Build(model);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t r_lo = rng.UniformUint64(model.rows());
    const std::size_t r_hi =
        r_lo + rng.UniformUint64(model.rows() - r_lo);
    const std::size_t c_lo = rng.UniformUint64(model.cols());
    const std::size_t c_hi =
        c_lo + rng.UniformUint64(model.cols() - c_lo);
    double expected = 0.0;
    for (std::size_t i = r_lo; i <= r_hi; ++i) {
      for (std::size_t j = c_lo; j <= c_hi; ++j) {
        expected += model.ReconstructCell(i, j);
      }
    }
    const IdRange row_run{r_lo, r_hi};
    const IdRange col_run{c_lo, c_hi};
    RollupStats stats;
    const double got =
        hierarchy->RegionSum({&row_run, 1}, {&col_run, 1}, &stats).value();
    EXPECT_NEAR(got, expected, kRelTol * std::abs(expected) + kAbsTol)
        << "region rows " << r_lo << ":" << r_hi << " cols " << c_lo << ":"
        << c_hi;
    EXPECT_GT(stats.nodes_read, 0u);
  }
}

TEST(AggregateHierarchyTest, PartialColumnRangesFoldOnlyInRegionDeltas) {
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, QuantScheme::kF64);
  ASSERT_GT(model.delta_count(), 0u);
  const auto hierarchy = AggregateHierarchy::Build(model);
  // A partial column window must sum exactly the deltas whose column
  // falls inside it, over the whole height and over a row window.
  const IdRange half_cols{0, model.cols() / 2};
  for (const IdRange rows : {IdRange{0, model.rows() - 1},
                             IdRange{7, model.rows() / 3}}) {
    double want = 0.0;
    double magnitude = 0.0;
    model.deltas()->ForEach([&](std::size_t i, std::size_t j, double delta) {
      if (i >= rows.lo && i <= rows.hi && j <= half_cols.hi) {
        want += delta;
        magnitude += std::abs(delta);
      }
    });
    // The region sum over the same window, minus its factor part, is
    // exactly that delta mass up to rounding.
    double factor_part = 0.0;
    for (std::size_t i = rows.lo; i <= rows.hi; ++i) {
      for (std::size_t j = 0; j <= half_cols.hi; ++j) {
        factor_part += model.svd().ReconstructCell(i, j);
      }
    }
    const double got =
        hierarchy->RegionSum({&rows, 1}, {&half_cols, 1}, nullptr).value();
    EXPECT_NEAR(got - factor_part, want,
                kRelTol * (std::abs(factor_part) + magnitude) + kAbsTol);
  }
}

class AggRollupPropertyTest : public ::testing::TestWithParam<QuantScheme> {};

TEST_P(AggRollupPropertyTest, RollupMatchesScanAcrossRandomRegions) {
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, GetParam());
  QueryExecutor compressed_exec(&model);
  ASSERT_NE(compressed_exec.rollup(), nullptr);
  QueryExecutor threaded_exec(&model, 3);
  const ScanOnlyStore scan_store(&model);
  QueryExecutor scan_exec(&scan_store);
  Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
  const char* kGroupBys[] = {"", " group by row", " group by col"};
  for (int trial = 0; trial < 25; ++trial) {
    std::ostringstream query;
    query << "select sum(value), avg(value), count(*) where row in "
          << RandomRanges(rng, model.rows()) << " and col in "
          << RandomRanges(rng, model.cols())
          << kGroupBys[rng.UniformUint64(3)];
    const auto fast = compressed_exec.Execute(query.str());
    const auto slow = scan_exec.Execute(query.str());
    ASSERT_TRUE(fast.ok()) << query.str() << ": "
                           << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << query.str() << ": "
                           << slow.status().ToString();
    EXPECT_EQ(fast->rows_reconstructed, 0u) << query.str();
    EXPECT_EQ(fast->compressed_domain_aggregates, 3u) << query.str();
    ExpectSameAnswers(*fast, *slow, query.str());
    // The compressed domain runs on the calling thread: a pool changes
    // no bit.
    const auto threaded = threaded_exec.Execute(query.str());
    ASSERT_TRUE(threaded.ok()) << query.str();
    EXPECT_EQ(threaded->values, fast->values) << query.str();
    // count is exact, not just close: both sides enumerate cells.
    for (std::size_t g = 0; g < fast->group_count(); ++g) {
      EXPECT_DOUBLE_EQ(fast->ValueAt(g, 2), slow->ValueAt(g, 2))
          << query.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQuantSchemes, AggRollupPropertyTest,
                         ::testing::Values(QuantScheme::kF64,
                                           QuantScheme::kF32,
                                           QuantScheme::kI16,
                                           QuantScheme::kI8),
                         [](const auto& info) {
                           return QuantSchemeName(info.param);
                         });

TEST(AggRollupDeltaTest, IncrementalPatchesKeepHierarchyFresh) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  // Executor built BEFORE the patches: it reads the model's current
  // delta snapshot, so it must agree with one built afterwards.
  QueryExecutor live(&model);
  ASSERT_NE(live.rollup(), nullptr);
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const std::size_t row = rng.UniformUint64(model.rows());
    const std::size_t col = rng.UniformUint64(model.cols());
    ASSERT_TRUE(model.PatchCell(row, col, rng.UniformDouble() * 100.0).ok());
    if (i % 8 == 0) {
      // Re-patch the same cell: the delta replace path (count must not
      // double-count the entry).
      ASSERT_TRUE(
          model.PatchCell(row, col, rng.UniformDouble() * 100.0).ok());
    }
  }
  QueryExecutor rebuilt(&model);
  const ScanOnlyStore scan_store(&model);
  QueryExecutor scan(&scan_store);
  const char* kQueries[] = {
      "select sum(value), avg(value), count(*)",
      "select sum(value) where row in 10:80 and col in 5:30",
      "select sum(value) where row in 0:119 and col in 3:9 group by row",
      "select sum(value) where row in 20:60 group by col",
  };
  for (const char* query : kQueries) {
    const auto a = live.Execute(query);
    const auto b = rebuilt.Execute(query);
    const auto c = scan.Execute(query);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << query;
    for (std::size_t v = 0; v < a->values.size(); ++v) {
      // Live vs rebuilt: same block sums, same delta snapshot.
      EXPECT_NEAR(a->values[v], b->values[v],
                  kRelTol * std::abs(b->values[v]) + kAbsTol)
          << query;
    }
    ExpectSameAnswers(*a, *c, query);
  }
}

TEST(AggRollupDeltaTest, ListenerOutlivedByModelIsSafe) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  {
    QueryExecutor ephemeral(&model);
    ASSERT_NE(ephemeral.rollup(), nullptr);
  }
  // The executor (and its view) are gone; the model keeps patching
  // without any reference back to them.
  EXPECT_TRUE(model.PatchCell(0, 0, 123.0).ok());
  EXPECT_NEAR(model.ReconstructCell(0, 0), 123.0, 1e-12);
}

TEST(AggRollupStrategyTest, AnalyzeFooterNamesTheStrategy) {
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, QuantScheme::kF64);
  QueryExecutor executor(&model);
  const auto result =
      executor.Execute("select sum(value), max(value) where row in 0:49");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->strategy_summary.find("sum=compressed-domain"),
            std::string::npos)
      << result->strategy_summary;
  EXPECT_NE(result->strategy_summary.find("max=row-reconstruction"),
            std::string::npos)
      << result->strategy_summary;
  const std::string footer = result->AnalyzeFooter();
  EXPECT_NE(footer.find("strategies:"), std::string::npos) << footer;
  EXPECT_NE(footer.find("block sums:"), std::string::npos) << footer;
  EXPECT_GT(result->agg_nodes_read, 0u);
}

TEST(AggRollupStrategyTest, LinearAggregatesPlanOnlyCompressedDomain) {
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, QuantScheme::kF64);
  // Every SVDD executor has the view, whatever its legacy bool says.
  QueryExecutor executor(&model, /*num_threads=*/1, /*unused=*/false);
  ASSERT_NE(executor.rollup(), nullptr);
  const auto plan = executor.Explain(
      "select sum(value), avg(value), count(*) where row in 0:49");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("row-reconstruction"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("compressed-domain"), std::string::npos) << *plan;
  const ScanOnlyStore scan_store(&model);
  QueryExecutor scan(&scan_store);
  const char* query = "select sum(value) where row in 0:99 and col in 0:19";
  const auto a = executor.Execute(query);
  const auto b = scan.Execute(query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->values[0], b->values[0],
              kRelTol * std::abs(b->values[0]) + kAbsTol);
}

TEST(AggRollupStrategyTest, SingleRowSelectionsUseTheRollupToo) {
  // A single selected row costs one pass over the selected columns'
  // weighted V rows, far below reconstructing it, so it plans in the
  // compressed domain like any other selection.
  const Matrix data = TestData();
  const SvddModel model = BuildModel(data, QuantScheme::kF64);
  QueryExecutor executor(&model);
  const ScanOnlyStore scan_store(&model);
  QueryExecutor scan(&scan_store);
  const char* query = "select sum(value) where row in 17";
  const auto fast = executor.Execute(query);
  const auto slow = scan.Execute(query);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(fast->compressed_domain_aggregates, 1u);
  EXPECT_EQ(fast->rows_reconstructed, 0u);
  EXPECT_NEAR(fast->values[0], slow->values[0],
              kRelTol * std::abs(slow->values[0]) + kAbsTol);
}

TEST(AggRollupStrategyTest, FoldInRowsRebuildsTheBlockSums) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  QueryExecutor executor(&model);
  ASSERT_NE(executor.rollup(), nullptr);
  ASSERT_TRUE(executor.Execute("select sum(value)").ok());

  // 120 -> 130 rows crosses the block edge at row 128.
  ASSERT_EQ(model.rows(), 120u);
  Matrix appended(10, model.cols());
  for (std::size_t r = 0; r < appended.rows(); ++r) {
    for (std::size_t c = 0; c < appended.cols(); ++c) {
      appended(r, c) = 3.0 + static_cast<double>(r + c % 5);
    }
  }
  model.FoldInRows(appended);

  // The same executor covers the appended rows.
  const ScanOnlyStore scan_store(&model);
  QueryExecutor scan(&scan_store);
  const char* query = "select sum(value), count(value)";
  const auto fast = executor.Execute(query);
  const auto slow = scan.Execute(query);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(fast->values[1], static_cast<double>(model.rows() * model.cols()));
  EXPECT_NEAR(fast->values[0], slow->values[0],
              kRelTol * std::abs(slow->values[0]) + kAbsTol);

  // Patches to an appended row land too.
  const std::size_t patched_row = model.rows() - 1;
  TSC_CHECK_OK(model.PatchCell(patched_row, 0, 5000.0));
  const auto patched_fast = executor.Execute(query);
  const auto patched_slow = scan.Execute(query);
  ASSERT_TRUE(patched_fast.ok() && patched_slow.ok());
  EXPECT_NEAR(patched_fast->values[0], patched_slow->values[0],
              kRelTol * std::abs(patched_slow->values[0]) + kAbsTol);
  EXPECT_GT(patched_fast->values[0], fast->values[0] + 1000.0);
}

}  // namespace
}  // namespace tsc
