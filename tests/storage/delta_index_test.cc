#include "storage/delta_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/query_context.h"
#include "storage/bloom_filter.h"
#include "util/rng.h"

namespace tsc {
namespace {

using Cell = std::pair<std::size_t, std::size_t>;
using Oracle = std::map<Cell, double>;

/// A base value per cell that the folds add deltas onto.
double BaseValue(std::size_t row, std::size_t col) {
  return 0.1 * static_cast<double>(row) - 0.37 * static_cast<double>(col);
}

std::vector<DeltaEntry> Entries(const Oracle& oracle, std::size_t cols) {
  std::vector<DeltaEntry> entries;
  for (const auto& [cell, delta] : oracle) {
    entries.push_back({DeltaIndex::CellKey(cell.first, cell.second, cols),
                       delta});
  }
  return entries;
}

/// Random deltas over a rows x cols matrix that always leave row 1 and
/// column 2 empty and always fill row 0 and the last row.
Oracle RandomOracle(Rng& rng, std::size_t rows, std::size_t cols,
                    std::size_t count) {
  Oracle oracle;
  for (std::size_t n = 0; n < count; ++n) {
    const std::size_t row = rng.UniformUint64(rows);
    const std::size_t col = rng.UniformUint64(cols);
    if (row == 1 || col == 2) continue;
    oracle[{row, col}] = rng.UniformDouble(-50.0, 50.0);
  }
  oracle[{0, 0}] = 3.5;
  oracle[{rows - 1, cols - 1}] = -7.25;
  return oracle;
}

/// Sorted disjoint runs over [0, n), one to four of them.
std::vector<IdRange> RandomRuns(Rng& rng, std::size_t n) {
  std::vector<std::size_t> cuts;
  const std::size_t count = 2 * (1 + rng.UniformUint64(4));
  for (std::size_t c = 0; c < count; ++c) cuts.push_back(rng.UniformUint64(n));
  std::sort(cuts.begin(), cuts.end());
  std::vector<IdRange> runs;
  for (std::size_t c = 0; c + 1 < cuts.size(); c += 2) {
    if (!runs.empty() && cuts[c] <= runs.back().hi + 1) {
      runs.back().hi = std::max(runs.back().hi, cuts[c + 1]);
    } else {
      runs.push_back({cuts[c], cuts[c + 1]});
    }
  }
  return runs;
}

double OracleSum(const Oracle& oracle, std::span<const IdRange> rows,
                 std::span<const IdRange> cols, double* magnitude) {
  double sum = 0.0;
  for (const auto& [cell, delta] : oracle) {
    if (InRanges(rows, cell.first) && InRanges(cols, cell.second)) {
      sum += delta;
      *magnitude += std::abs(delta);
    }
  }
  return sum;
}

/// The place of `id` in the selection, counting through the runs in order.
std::size_t RankInRanges(std::span<const IdRange> runs, std::size_t id) {
  std::size_t rank = 0;
  for (const IdRange& run : runs) {
    if (id <= run.hi) return rank + (id - run.lo);
    rank += run.hi - run.lo + 1;
  }
  return rank;
}

using Shapes =
    std::vector<std::pair<std::vector<IdRange>, std::vector<IdRange>>>;

/// RegionSum, AddColumnSums and AddRowSums of every (row runs, column
/// runs) shape against the oracle.
void ExpectRangeSumsMatchOracle(const DeltaIndex& index, const Oracle& oracle,
                                const Shapes& shapes) {
  for (const auto& [row_runs, col_runs] : shapes) {
    double magnitude = 0.0;
    const double want = OracleSum(oracle, row_runs, col_runs, &magnitude);
    const double tolerance = 1e-12 * (magnitude + 1.0);
    EXPECT_NEAR(index.RegionSum(row_runs, col_runs), want, tolerance);

    // Per-column and per-row oracle sums, in one pass over the oracle.
    const std::size_t selected_cols = RangesSize(col_runs);
    const std::size_t selected_rows = RangesSize(row_runs);
    std::vector<double> col_want(selected_cols, 0.0);
    std::vector<double> col_mag(selected_cols, 0.0);
    std::vector<double> row_want(selected_rows, 0.0);
    std::vector<double> row_mag(selected_rows, 0.0);
    for (const auto& [cell, delta] : oracle) {
      if (!InRanges(row_runs, cell.first) || !InRanges(col_runs, cell.second)) {
        continue;
      }
      const std::size_t c = RankInRanges(col_runs, cell.second);
      const std::size_t r = RankInRanges(row_runs, cell.first);
      col_want[c] += delta;
      col_mag[c] += std::abs(delta);
      row_want[r] += delta;
      row_mag[r] += std::abs(delta);
    }

    std::vector<double> by_col(selected_cols, 0.0);
    index.AddColumnSums(row_runs, col_runs, by_col);
    for (std::size_t g = 0; g < selected_cols; ++g) {
      EXPECT_NEAR(by_col[g], col_want[g], 1e-12 * (col_mag[g] + 1.0))
          << "column slot " << g;
    }
    std::vector<double> by_row(selected_rows, 0.0);
    index.AddRowSums(row_runs, col_runs, by_row);
    for (std::size_t g = 0; g < selected_rows; ++g) {
      EXPECT_NEAR(by_row[g], row_want[g], 1e-12 * (row_mag[g] + 1.0))
          << "row slot " << g;
    }
  }
}

/// Every fold of `index` against the oracle.
void ExpectMatchesOracle(const DeltaIndex& index, const Oracle& oracle,
                         Rng& rng) {
  const std::size_t rows = index.rows();
  const std::size_t cols = index.cols();
  ASSERT_EQ(index.size(), oracle.size());
  EXPECT_EQ(index.PackedBytes(),
            oracle.size() * DeltaIndex::kPackedEntryBytes);

  // ForEach: every delta once, in key order.
  std::vector<std::pair<Cell, double>> seen;
  index.ForEach([&](std::size_t row, std::size_t col, double delta) {
    seen.push_back({{row, col}, delta});
  });
  const std::vector<std::pair<Cell, double>> want(oracle.begin(),
                                                  oracle.end());
  EXPECT_EQ(seen, want);

  // Cells and rows, bit for bit on top of the base values.
  std::vector<double> row_out(cols);
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t col = 0; col < cols; ++col) {
      row_out[col] = BaseValue(row, col);
      const auto it = oracle.find({row, col});
      const std::optional<double> found = index.Find(row, col);
      ASSERT_EQ(found.has_value(), it != oracle.end()) << row << "," << col;
      if (found.has_value()) {
        EXPECT_EQ(*found, it->second);
      }
    }
    index.AddToRow(row, row_out);
    for (std::size_t col = 0; col < cols; ++col) {
      const auto it = oracle.find({row, col});
      const double want = it == oracle.end()
                              ? BaseValue(row, col)
                              : BaseValue(row, col) + it->second;
      ASSERT_EQ(row_out[col], want) << row << "," << col;
    }
  }

  // Regions with unsorted and repeated ids: every copy gets its delta.
  std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      regions;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::size_t> row_ids;
    std::vector<std::size_t> col_ids;
    for (std::size_t n = 1 + rng.UniformUint64(12); n > 0; --n) {
      row_ids.push_back(rng.UniformUint64(rows));
    }
    for (std::size_t n = 1 + rng.UniformUint64(12); n > 0; --n) {
      col_ids.push_back(rng.UniformUint64(cols));
    }
    row_ids.push_back(row_ids.front());
    col_ids.push_back(col_ids.front());
    regions.push_back({row_ids, col_ids});
  }
  // Column 0 and the last column alone, and both of them, unsorted and
  // repeated, around a middle column: the widest span the table takes.
  const std::vector<std::size_t> some_rows = {rows - 1, 0, rows / 2, 0,
                                              rows - 1};
  regions.push_back({some_rows, {0}});
  regions.push_back({some_rows, {cols - 1}});
  regions.push_back({some_rows, {cols - 1, 0, cols / 2, cols - 1, 0}});
  std::vector<std::size_t> every_col_twice;
  for (std::size_t col = cols; col-- > 0;) every_col_twice.push_back(col);
  for (std::size_t col = 0; col < cols; ++col) every_col_twice.push_back(col);
  regions.push_back({some_rows, every_col_twice});
  for (const auto& [row_ids, col_ids] : regions) {
    Matrix region(row_ids.size(), col_ids.size());
    for (std::size_t r = 0; r < row_ids.size(); ++r) {
      for (std::size_t c = 0; c < col_ids.size(); ++c) {
        region(r, c) = BaseValue(row_ids[r], col_ids[c]);
      }
    }
    index.AddToRegion(row_ids, col_ids, &region);
    for (std::size_t r = 0; r < row_ids.size(); ++r) {
      for (std::size_t c = 0; c < col_ids.size(); ++c) {
        const auto it = oracle.find({row_ids[r], col_ids[c]});
        const double base = BaseValue(row_ids[r], col_ids[c]);
        ASSERT_EQ(region(r, c),
                  it == oracle.end() ? base : base + it->second)
            << "region " << row_ids[r] << "," << col_ids[c];
      }
    }
  }

  // ForEachInRegion over each run of random row runs: the selected
  // deltas in (row, column) order, each with its column's position.
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<IdRange> row_runs = RandomRuns(rng, rows);
    const std::vector<IdRange> col_runs = RandomRuns(rng, cols);
    for (const IdRange& run : row_runs) {
      std::vector<std::pair<std::size_t, double>> visited;
      index.ForEachInRegion(run, col_runs, [&](std::size_t c, double delta) {
        visited.push_back({c, delta});
      });
      std::vector<std::pair<std::size_t, double>> want;
      for (const auto& [cell, delta] : oracle) {
        if (cell.first >= run.lo && cell.first <= run.hi &&
            InRanges(col_runs, cell.second)) {
          want.push_back({RankInRanges(col_runs, cell.second), delta});
        }
      }
      ASSERT_EQ(visited, want) << "rows " << run.lo << ".." << run.hi;
    }
  }

  // Range sums: random multi-run regions, plus the extreme shapes: one
  // row, one column, everything, an empty row and an empty column.
  Shapes shapes;
  for (int trial = 0; trial < 24; ++trial) {
    shapes.push_back({RandomRuns(rng, rows), RandomRuns(rng, cols)});
  }
  shapes.push_back({{{rows - 1, rows - 1}}, {{0, cols - 1}}});
  shapes.push_back({{{0, rows - 1}}, {{cols - 1, cols - 1}}});
  shapes.push_back({{{0, rows - 1}}, {{0, cols - 1}}});
  if (rows > 1) shapes.push_back({{{1, 1}}, {{0, cols - 1}}});  // empty row
  if (cols > 2) shapes.push_back({{{0, rows - 1}}, {{2, 2}}});  // empty col
  ExpectRangeSumsMatchOracle(index, oracle, shapes);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes a delta section by hand: the given header and pairs, then the
/// Bloom flag and, when `bloom` is set, a filter over the keys.
void WriteSection(const std::string& path, std::uint64_t entry_bytes,
                  std::uint64_t count, const std::vector<DeltaEntry>& entries,
                  std::uint32_t bloom_flag = 0) {
  auto writer = BinaryWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteU64(entry_bytes).ok());
  ASSERT_TRUE(writer->WriteU64(count).ok());
  BloomFilter filter(entries.size(), 10.0);
  for (const DeltaEntry& entry : entries) {
    ASSERT_TRUE(writer->WriteU64(entry.key).ok());
    ASSERT_TRUE(writer->WriteDouble(entry.delta).ok());
    filter.Add(entry.key);
  }
  ASSERT_TRUE(writer->WriteU32(bloom_flag).ok());
  if (bloom_flag == 1) {
    ASSERT_TRUE(filter.Serialize(&*writer).ok());
  }
  ASSERT_TRUE(writer->FinishWithChecksum().ok());
}

StatusOr<DeltaIndex> ReadSection(const std::string& path, std::size_t rows,
                                 std::size_t cols) {
  TSC_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(path));
  TSC_ASSIGN_OR_RETURN(DeltaIndex index,
                       DeltaIndex::Deserialize(&reader, rows, cols));
  TSC_RETURN_IF_ERROR(reader.VerifyChecksum());
  return index;
}

TEST(DeltaIndexTest, EmptyIndexFoldsNothing) {
  const DeltaIndex none;
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_TRUE(none.empty());
  auto index = DeltaIndex::Build(5, 4, {});
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Find(4, 3).has_value());
  std::vector<double> row(4, 1.0);
  index->AddToRow(2, row);
  EXPECT_EQ(row, std::vector<double>(4, 1.0));
  const IdRange all_rows{0, 4};
  const IdRange all_cols{0, 3};
  EXPECT_EQ(index->RegionSum({&all_rows, 1}, {&all_cols, 1}), 0.0);
  EXPECT_EQ(index->PackedBytes(), 0u);
}

TEST(DeltaIndexTest, MatchesMapOracle) {
  Rng rng(1);
  for (const auto& [rows, cols, count] :
       {std::array<std::size_t, 3>{1, 1, 1}, {7, 5, 12}, {40, 13, 120},
        {120, 40, 900}, {300, 9, 1500}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    const Oracle oracle = RandomOracle(rng, rows, cols, count);
    auto index = DeltaIndex::Build(rows, cols, Entries(oracle, cols));
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ExpectMatchesOracle(*index, oracle, rng);
  }
}

// The checkpoint spacing, and 3300 rows: 3072 is a multiple of every
// spacing up to 1024, so the last interval, 3072..3299, is a short one.
constexpr std::size_t kStep = DeltaIndex::kCheckpointRows;
constexpr std::size_t kTallRows = 3300;
constexpr std::size_t kTallCols = 12;
static_assert(3072 % kStep == 0 && 3 * kStep <= 3072);

/// Row runs whose ends fall on every side of the checkpoints of a
/// kTallRows-row index, each over all columns, a subset and one column.
Shapes CheckpointShapes(std::size_t rows, std::size_t cols) {
  constexpr std::size_t kHalf = kStep / 2;
  const std::vector<std::vector<IdRange>> row_runs = {
      // lo nearer kStep, end nearer 3 kStep
      {{kStep + kHalf - 6, 2 * kStep + kHalf + 39}},
      // lo nearer 2 kStep, end nearer 3 kStep
      {{kStep + kHalf + 4, 2 * kStep + kHalf + 40}},
      {{kStep + kHalf, 2 * kStep + kHalf + 400}},  // lo on a midpoint
      {{kStep, 2 * kStep - 1}},  // one whole interval: kStep rows, walked
      {{kStep, 3 * kStep - 1}},  // both ends on checkpoints
      {{0, kStep - 1}},          // kStep rows, walked
      {{0, kStep}},              // kStep + 1 rows, from checkpoints
      {{100, rows - 1}},         // end on the last checkpoint, rows
      {{500, 3200}},   // end in the short interval, nearer its end
      {{2000, 3150}},  // end in the short interval, nearer 3072
      {{3100, 3250}},  // inside the short interval
      {{10, 1500}, {1600, 1700}, {2000, rows - 1}},
      {{0, 511}, {600, 2100}, {2900, rows - 1}},
  };
  const std::vector<std::vector<IdRange>> col_runs = {
      {{0, cols - 1}}, {{1, 4}, {7, 7}, {9, cols - 1}}, {{6, 6}}};
  Shapes shapes;
  for (const std::vector<IdRange>& rr : row_runs) {
    for (const std::vector<IdRange>& cr : col_runs) shapes.push_back({rr, cr});
  }
  return shapes;
}

TEST(DeltaIndexTest, CheckpointFoldsMatchOracle) {
  Rng rng(5);
  const Oracle tall = RandomOracle(rng, kTallRows, kTallCols, 4 * kTallRows);
  auto index = DeltaIndex::Build(kTallRows, kTallCols, Entries(tall, kTallCols));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // Checkpoints at 0, kStep, ..., 3072 and kTallRows.
  EXPECT_EQ(index->CheckpointBytes(),
            (3072 / kStep + 2) * kTallCols * sizeof(double));
  ExpectMatchesOracle(*index, tall, rng);
  ExpectRangeSumsMatchOracle(*index, tall,
                             CheckpointShapes(kTallRows, kTallCols));

  // Rows a whole number of intervals: the last checkpoint is a full one.
  const std::size_t rows = 4 * kStep;
  const Oracle even = RandomOracle(rng, rows, 5, 3 * rows);
  auto exact = DeltaIndex::Build(rows, 5, Entries(even, 5));
  ASSERT_TRUE(exact.ok());
  ExpectMatchesOracle(*exact, even, rng);
  ExpectRangeSumsMatchOracle(*exact, even,
                             {{{{0, rows - 1}}, {{0, 4}}},
                              {{{kStep + 100, rows - 1}}, {{0, 4}}},
                              {{{kStep - 30, 3 * kStep + 30}}, {{1, 3}}},
                              {{{40, 2 * kStep}, {3 * kStep, rows - 1}},
                               {{0, 0}}}});
}

TEST(DeltaIndexTest, CheckpointFoldsSeeOverlayPatches) {
  Rng rng(6);
  Oracle oracle = RandomOracle(rng, kTallRows, kTallCols, 4 * kTallRows);
  // Row 2 kStep is inside the checkpoints of the first shape's run and
  // walked for the second's; row kStep + 10 is walked, outside the run,
  // for the first.
  const std::size_t inside = 2 * kStep;
  const std::size_t outside = kStep + 10;
  oracle[{inside, 5}] = 4.0;
  oracle.erase({outside, 3});
  oracle[{3250, 9}] = -2.5;  // in the short last interval
  auto built =
      DeltaIndex::Build(kTallRows, kTallCols, Entries(oracle, kTallCols));
  ASSERT_TRUE(built.ok());
  DeltaIndex index = built->WithPatch(inside, 5, -11.0);  // shadows 4.0
  index = index.WithPatch(outside, 3, 6.5);                // a new cell
  index = index.WithPatch(3250, 9, 0.75);                  // shadows -2.5
  oracle[{inside, 5}] = -11.0;
  oracle[{outside, 3}] = 6.5;
  oracle[{3250, 9}] = 0.75;
  ExpectMatchesOracle(index, oracle, rng);
  ExpectRangeSumsMatchOracle(index, oracle,
                             CheckpointShapes(kTallRows, kTallCols));
}

TEST(DeltaIndexTest, CheckpointFoldsOverGrownRows) {
  Rng rng(7);
  Oracle oracle = RandomOracle(rng, kTallRows, kTallCols, 4 * kTallRows);
  auto built =
      DeltaIndex::Build(kTallRows, kTallCols, Entries(oracle, kTallCols));
  ASSERT_TRUE(built.ok());
  const std::size_t rows = 4500;
  DeltaIndex grown = built->WithRows(rows).WithPatch(4400, 6, 8.5);
  oracle[{4400, 6}] = 8.5;
  Shapes shapes = CheckpointShapes(kTallRows, kTallCols);
  shapes.push_back({{{0, rows - 1}}, {{0, kTallCols - 1}}});
  shapes.push_back({{{3000, rows - 1}}, {{0, kTallCols - 1}}});
  shapes.push_back({{{4000, rows - 1}}, {{6, 6}}});
  shapes.push_back({{{1000, 4200}}, {{2, 8}}});
  ExpectMatchesOracle(grown, oracle, rng);
  ExpectRangeSumsMatchOracle(grown, oracle, shapes);
}

TEST(DeltaIndexTest, ColumnSumsCountRowsWalkedAndCheckpointsRead) {
#ifdef TSC_OBS_DISABLED
  GTEST_SKIP() << "request charges compiled out (TSC_OBS_DISABLED)";
#endif
  Rng rng(8);
  const Oracle oracle = RandomOracle(rng, kTallRows, kTallCols, 4 * kTallRows);
  auto index =
      DeltaIndex::Build(kTallRows, kTallCols, Entries(oracle, kTallCols));
  ASSERT_TRUE(index.ok());
  const auto probes = [&](std::vector<IdRange> rows) {
    obs::QueryContext context;
    const obs::ScopedQueryContext scope(&context);
    const IdRange cols{0, kTallCols - 1};
    std::vector<double> sums(kTallCols, 0.0);
    index->AddColumnSums(rows, {&cols, 1}, sums);
    return context.Costs().delta_probes;
  };
  // A run of at most kStep rows walks each of its rows.
  EXPECT_EQ(probes({{100, 199}}), 100u);
  EXPECT_EQ(probes({{0, kStep - 1}}), kStep);
  // This run reads the checkpoints at rows kStep and 3 kStep and walks
  // the kStep / 2 - 6 rows between the first and its start and the
  // kStep / 2 - 40 rows between its end and the second.
  constexpr std::size_t kHalf = kStep / 2;
  EXPECT_EQ(probes({{kStep + kHalf - 6, 2 * kStep + kHalf + 39}}),
            2 + (kHalf - 6) + (kHalf - 40));
  EXPECT_EQ(probes({{kStep, 3 * kStep - 1}}), 2u);
  EXPECT_EQ(probes({{kStep, 3 * kStep - 1}, {3100, 3199}}), 2u + 100u);
}

TEST(DeltaIndexTest, PatchesOverlayAndMergeMatchOracle) {
  // Overwrites, inserts and repeats, past several overlay merges; every
  // intermediate snapshot stays as it was published.
  Rng rng(2);
  const std::size_t rows = 60;
  const std::size_t cols = 17;
  Oracle oracle = RandomOracle(rng, rows, cols, 200);
  auto built = DeltaIndex::Build(rows, cols, Entries(oracle, cols));
  ASSERT_TRUE(built.ok());
  DeltaIndex index = *built;
  const DeltaIndex first = index;
  const Oracle first_oracle = oracle;
  for (int step = 1; step <= 3 * static_cast<int>(DeltaIndex::kMaxOverlay);
       ++step) {
    std::size_t row = rng.UniformUint64(rows);
    std::size_t col = rng.UniformUint64(cols);
    if (step % 3 == 0) {  // overwrite a stored delta
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.UniformUint64(oracle.size())));
      row = it->first.first;
      col = it->first.second;
    }
    const double delta = rng.UniformDouble(-9.0, 9.0);
    index = index.WithPatch(row, col, delta);
    oracle[{row, col}] = delta;
    if (step % 97 == 0 || step == 5) ExpectMatchesOracle(index, oracle, rng);
  }
  ExpectMatchesOracle(index, oracle, rng);
  ExpectMatchesOracle(first, first_oracle, rng);

  // Serialization is a function of the contents alone.
  const std::string a = TempPath("patched.delta");
  const std::string b = TempPath("rebuilt.delta");
  {
    auto writer = BinaryWriter::Open(a);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(index.Serialize(&*writer).ok());
    ASSERT_TRUE(writer->FinishWithChecksum().ok());
  }
  auto rebuilt = DeltaIndex::Build(rows, cols, Entries(oracle, cols));
  ASSERT_TRUE(rebuilt.ok());
  {
    auto writer = BinaryWriter::Open(b);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(rebuilt->Serialize(&*writer).ok());
    ASSERT_TRUE(writer->FinishWithChecksum().ok());
  }
  auto loaded = ReadSection(a, rows, cols);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectMatchesOracle(*loaded, oracle, rng);
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(fa), {}),
            std::string(std::istreambuf_iterator<char>(fb), {}));
}

TEST(DeltaIndexTest, GrownRowsStartEmptyAndTakePatches) {
  Rng rng(3);
  const Oracle oracle = RandomOracle(rng, 20, 6, 40);
  auto built = DeltaIndex::Build(20, 6, Entries(oracle, 6));
  ASSERT_TRUE(built.ok());
  DeltaIndex grown = built->WithRows(25);
  EXPECT_EQ(grown.rows(), 25u);
  Oracle want = oracle;
  ExpectMatchesOracle(grown, want, rng);
  grown = grown.WithPatch(24, 5, 8.5);
  want[{24, 5}] = 8.5;
  ExpectMatchesOracle(grown, want, rng);
}

TEST(DeltaIndexTest, LegacyBloomSectionIsReadAndDropped) {
  Rng rng(4);
  const Oracle oracle = RandomOracle(rng, 30, 10, 80);
  const std::vector<DeltaEntry> entries = Entries(oracle, 10);
  const std::string path = TempPath("bloom_section.delta");
  WriteSection(path, DeltaIndex::kPackedEntryBytes, entries.size(), entries,
               /*bloom_flag=*/1);
  auto index = ReadSection(path, 30, 10);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectMatchesOracle(*index, oracle, rng);
}

TEST(DeltaIndexTest, BuildRejectsHostileEntries) {
  const auto build = [](std::vector<DeltaEntry> entries) {
    return DeltaIndex::Build(4, 5, entries).status().code();
  };
  EXPECT_EQ(build({{3, 1.0}, {2, 1.0}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(build({{3, 1.0}, {3, 2.0}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(build({{20, 1.0}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(build({{1, std::numeric_limits<double>::quiet_NaN()}}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(build({{1, std::numeric_limits<double>::infinity()}}),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(DeltaIndex::Build(4, 5, {{{0, 1.0}, {19, 2.0}}}).ok());
  // Dimensions past u32 are refused before anything is sized by them.
  const std::size_t too_many = std::size_t{1} << 32;
  EXPECT_EQ(DeltaIndex::Build(too_many, 5, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeltaIndex::Build(5, too_many, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaIndexTest, DeserializeRejectsHostileSections) {
  const std::string path = TempPath("hostile.delta");
  const auto read = [&](std::size_t rows, std::size_t cols) {
    return ReadSection(path, rows, cols).status();
  };
  // Unsorted, duplicated and out-of-range keys.
  WriteSection(path, 16, 2, {{7, 1.0}, {3, 1.0}});
  EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError);
  WriteSection(path, 16, 2, {{7, 1.0}, {7, 1.0}});
  EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError);
  WriteSection(path, 16, 1, {{20, 1.0}});
  EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError);
  // A count beyond the cells, or beyond the file, fails without sizing
  // an allocation by it.
  WriteSection(path, 16, 21, {{1, 1.0}});
  EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError);
  WriteSection(path, 16, std::uint64_t{1} << 40, {{1, 1.0}});
  EXPECT_FALSE(read(std::size_t{1} << 20, std::size_t{1} << 20).ok());
  // Entry size and Bloom flag. Only 16 and the b=4 mode's 12 are entry
  // sizes; both store, and are charged, 16 bytes an entry.
  for (const std::uint64_t entry_bytes : {0, 8, 11, 13, 24}) {
    WriteSection(path, entry_bytes, 1, {{1, 1.0}});
    EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError) << entry_bytes;
  }
  WriteSection(path, 12, 2, {{1, 1.0}, {7, 2.0}});
  auto legacy = ReadSection(path, 4, 5);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->PackedBytes(), 2 * DeltaIndex::kPackedEntryBytes);
  WriteSection(path, 16, 1, {{1, 1.0}}, /*bloom_flag=*/2);
  EXPECT_EQ(read(4, 5).code(), StatusCode::kIoError);
  // Rows past u32.
  WriteSection(path, 16, 1, {{1, 1.0}});
  EXPECT_EQ(read(std::size_t{1} << 32, 5).code(), StatusCode::kIoError);
  EXPECT_TRUE(read(4, 5).ok());
}

}  // namespace
}  // namespace tsc
