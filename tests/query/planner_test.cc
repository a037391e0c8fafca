#include "query/planner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "util/id_range.h"
#include "util/rng.h"

namespace tsc {
namespace {

QueryPlan MustPlan(const std::string& text, std::size_t rows,
                   std::size_t cols, std::size_t k) {
  const auto ast = ParseQuery(text);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  const auto plan = PlanQuery(*ast, rows, cols, k);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlannerTest, UnconstrainedSelectsEverything) {
  const QueryPlan plan = MustPlan("select count(*)", 5, 3, 0);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{0, 4}}));
  EXPECT_EQ(plan.col_runs, (std::vector<IdRange>{{0, 2}}));
  EXPECT_EQ(plan.RowCount(), 5u);
  EXPECT_EQ(plan.ColCount(), 3u);
  EXPECT_EQ(plan.CellCount(), 15u);
}

TEST(PlannerTest, RangesResolve) {
  const QueryPlan plan = MustPlan(
      "select sum(value) where row in 1:3,7 and col between 0 and 1", 10, 4,
      0);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{1, 3}, {7, 7}}));
  EXPECT_EQ(plan.col_runs, (std::vector<IdRange>{{0, 1}}));
}

TEST(PlannerTest, RepeatedConstraintsIntersect) {
  const QueryPlan plan = MustPlan(
      "select sum(value) where row in 0:5 and row in 3:9", 20, 4, 0);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{3, 5}}));
}

TEST(PlannerTest, EmptyIntersectionRejected) {
  const auto ast =
      ParseQuery("select sum(value) where row in 0:2 and row in 5:7");
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(PlanQuery(*ast, 10, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, OutOfRangeRejected) {
  const auto ast = ParseQuery("select sum(value) where col in 10");
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(PlanQuery(*ast, 10, 4, 0).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PlannerTest, LinearAggregatesGoCompressedWithModel) {
  const QueryPlan plan = MustPlan(
      "select sum(value), avg(value), count(*), max(value) "
      "where row in 0:9",
      100, 20, /*model_k=*/5);
  ASSERT_EQ(plan.strategies.size(), 4u);
  EXPECT_EQ(plan.strategies[0], ExecutionStrategy::kCompressedDomain);
  EXPECT_EQ(plan.strategies[1], ExecutionStrategy::kCompressedDomain);
  EXPECT_EQ(plan.strategies[2], ExecutionStrategy::kCompressedDomain);
  EXPECT_EQ(plan.strategies[3], ExecutionStrategy::kRowReconstruction);
}

TEST(PlannerTest, NoModelMeansRowReconstruction) {
  const QueryPlan plan =
      MustPlan("select sum(value) where row in 0:9", 100, 20, 0);
  EXPECT_EQ(plan.strategies[0], ExecutionStrategy::kRowReconstruction);
}

TEST(PlannerTest, SingleRowSelectionGoesCompressedWithModel) {
  const QueryPlan plan =
      MustPlan("select sum(value) where row in 7", 100, 20, 5);
  EXPECT_EQ(plan.strategies[0], ExecutionStrategy::kCompressedDomain);
}

TEST(PlannerTest, ToStringMentionsStrategies) {
  const QueryPlan plan =
      MustPlan("select sum(value), min(value)", 10, 5, 3);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("compressed-domain"), std::string::npos);
  EXPECT_NE(text.find("row-reconstruction"), std::string::npos);
  EXPECT_NE(text.find("50 cells"), std::string::npos);
}

TEST(PlannerTest, EmptyRelationRejected) {
  const auto ast = ParseQuery("select count(*)");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(PlanQuery(*ast, 0, 5, 0).ok());
}

TEST(PlannerTest, UnsortedOverlappingAndAdjacentRangesMerge) {
  const QueryPlan plan = MustPlan(
      "select sum(value) where row in 40:49,0:4,3:9,10,60:61,62:70,65:66",
      100, 4, 0);
  EXPECT_EQ(plan.row_runs,
            (std::vector<IdRange>{{0, 10}, {40, 49}, {60, 70}}));
  EXPECT_EQ(plan.RowCount(), 32u);
}

/// The planner before run-based plans: a bitmap over the extent per
/// constraint, intersected cell by cell. Kept here as the oracle.
StatusOr<std::vector<std::size_t>> BitmapResolve(const QueryAst& ast,
                                                 bool is_row,
                                                 std::size_t extent) {
  std::vector<bool> selected(extent, true);
  bool constrained = false;
  for (const DimensionConstraint& constraint : ast.constraints) {
    if (constraint.is_row != is_row) continue;
    std::vector<bool> in_constraint(extent, false);
    for (const IdRange& range : constraint.ranges) {
      if (range.hi >= extent) {
        return Status::OutOfRange(
            std::string(is_row ? "row" : "col") + " index " +
            std::to_string(range.hi) + " out of range (extent " +
            std::to_string(extent) + ")");
      }
      for (std::size_t i = range.lo; i <= range.hi; ++i) {
        in_constraint[i] = true;
      }
    }
    for (std::size_t i = 0; i < extent; ++i) {
      selected[i] = selected[i] && in_constraint[i];
    }
    constrained = true;
  }
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < extent; ++i) {
    if (selected[i]) ids.push_back(i);
  }
  if (constrained && ids.empty()) {
    return Status::InvalidArgument("predicate selects no " +
                                   std::string(is_row ? "rows" : "columns"));
  }
  return ids;
}

/// One random range in [0, extent) shaped after `previous` (the last
/// range drawn for this constraint, or null): a repeat, an overlap, a
/// nested range, a neighbour, a range touching either end, a full-extent
/// range, a single id, rarely one past the extent or one with lo > hi.
IdRange RandomRange(Rng& rng, std::size_t extent, const IdRange* previous) {
  const auto any = [&] {
    return static_cast<std::size_t>(rng.UniformUint64(extent));
  };
  const std::size_t a = any();
  const std::size_t b = any();
  IdRange range{std::min(a, b), std::max(a, b)};
  switch (rng.UniformUint64(12)) {
    case 0:
      if (previous != nullptr) range = *previous;  // repeat
      break;
    case 1:  // overlapping
      if (previous != nullptr) {
        range.lo = previous->lo + (previous->hi - previous->lo) / 2;
      }
      break;
    case 2:  // nested
      if (previous != nullptr) {
        range = {previous->lo + (previous->hi - previous->lo) / 3,
                 previous->hi - (previous->hi - previous->lo) / 3};
      }
      break;
    case 3:  // adjacent on the right
      if (previous != nullptr && previous->hi + 1 < extent) {
        range = {previous->hi + 1, std::max(previous->hi + 1, range.hi)};
      }
      break;
    case 4:  // adjacent on the left
      if (previous != nullptr && previous->lo > 0) {
        range = {std::min(range.lo, previous->lo - 1), previous->lo - 1};
      }
      break;
    case 5:
      range.lo = 0;
      break;
    case 6:
      range.hi = extent - 1;
      break;
    case 7:
      range = {0, extent - 1};
      break;
    case 8:
      range.hi = range.lo;
      break;
    case 9:
      if (rng.Bernoulli(0.15)) range.hi = extent + any();  // out of range
      break;
    case 10:
      if (rng.Bernoulli(0.1) && range.lo < range.hi) {
        std::swap(range.lo, range.hi);  // inverted: selects nothing
      }
      break;
    default:
      break;
  }
  return range;
}

TEST(PlannerOracleTest, RandomConstraintSetsMatchTheBitmapResolver) {
  Rng rng(20261018);
  std::size_t empty_intersections = 0;
  std::size_t out_of_range = 0;
  std::size_t planned = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t rows = 1 + rng.UniformUint64(trial % 3 == 0 ? 8 : 300);
    const std::size_t cols = 1 + rng.UniformUint64(40);
    QueryAst ast;
    ast.aggregates = {AggregateFn::kSum, AggregateFn::kMax};
    const std::size_t constraints = rng.UniformUint64(5);
    for (std::size_t c = 0; c < constraints; ++c) {
      if (c > 0 && rng.Bernoulli(0.15)) {
        ast.constraints.push_back(ast.constraints.back());  // repeated
        continue;
      }
      DimensionConstraint constraint;
      constraint.is_row = rng.Bernoulli(0.6);
      const std::size_t extent = constraint.is_row ? rows : cols;
      const std::size_t ranges = 1 + rng.UniformUint64(6);
      for (std::size_t r = 0; r < ranges; ++r) {
        constraint.ranges.push_back(RandomRange(
            rng, extent,
            constraint.ranges.empty() ? nullptr : &constraint.ranges.back()));
      }
      ast.constraints.push_back(std::move(constraint));
    }
    const std::string context = "trial " + std::to_string(trial);

    const auto want_rows = BitmapResolve(ast, /*is_row=*/true, rows);
    const auto want_cols = BitmapResolve(ast, /*is_row=*/false, cols);
    const auto plan = PlanQuery(ast, rows, cols, /*model_k=*/3);
    const Status want_error =
        !want_rows.ok() ? want_rows.status() : want_cols.status();
    if (!want_error.ok()) {
      ASSERT_FALSE(plan.ok()) << context;
      EXPECT_EQ(plan.status().code(), want_error.code()) << context;
      EXPECT_EQ(plan.status().message(), want_error.message()) << context;
      out_of_range += want_error.code() == StatusCode::kOutOfRange ? 1 : 0;
      empty_intersections +=
          want_error.code() == StatusCode::kInvalidArgument ? 1 : 0;
      continue;
    }
    ASSERT_TRUE(plan.ok()) << context << ": " << plan.status().ToString();
    ++planned;
    EXPECT_EQ(ExpandRanges(plan->row_runs), *want_rows) << context;
    EXPECT_EQ(ExpandRanges(plan->col_runs), *want_cols) << context;
    EXPECT_EQ(plan->RowCount(), want_rows->size()) << context;
    EXPECT_EQ(plan->ColCount(), want_cols->size()) << context;
    // Runs are maximal: sorted, and a gap between any two neighbours.
    for (const auto* runs : {&plan->row_runs, &plan->col_runs}) {
      for (std::size_t r = 1; r < runs->size(); ++r) {
        EXPECT_GT((*runs)[r].lo, (*runs)[r - 1].hi + 1) << context;
      }
    }
  }
  // The generator reaches every outcome often.
  EXPECT_GT(planned, 1000u);
  EXPECT_GT(empty_intersections, 50u);
  EXPECT_GT(out_of_range, 100u);
}

TEST(PlannerTest, PlanCostDoesNotDependOnTheRowCount) {
  // A bitmap over 2^40 rows would be 128 GiB; the run plan is one run.
  const std::size_t rows = std::size_t{1} << 40;
  const QueryPlan plan =
      MustPlan("select max(value) where row in 1234", rows, 366, 20);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{1234, 1234}}));
  EXPECT_EQ(plan.col_runs, (std::vector<IdRange>{{0, 365}}));
  EXPECT_EQ(plan.CellCount(), 366u);
  EXPECT_EQ(plan.strategies[0], ExecutionStrategy::kRowReconstruction);

  const QueryPlan all = MustPlan("select sum(value)", rows, 366, 20);
  EXPECT_EQ(all.row_runs, (std::vector<IdRange>{{0, rows - 1}}));
  EXPECT_EQ(all.RowCount(), rows);
}

TEST(PlannerTest, HostileOverlappingRangesNormalizeToOneRun) {
  // About what one 8 KiB request head holds: 600 full-extent ranges,
  // which a per-id planner walks as 600 x 100000 cells.
  const std::size_t rows = 100000;
  std::string text = "select sum(value) where row in 0:99999";
  for (int i = 1; i < 600; ++i) text += ",0:99999";
  ASSERT_LT(text.size(), 8192u);
  QueryPlan plan = MustPlan(text, rows, 366, 20);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{0, rows - 1}}));

  // Staggered overlaps chain into one run too, in any order.
  text = "select sum(value) where row in 5000:6000";
  for (int i = 599; i >= 0; --i) {
    text += "," + std::to_string(i * 10) + ":" + std::to_string(i * 10 + 10);
  }
  plan = MustPlan(text, rows, 366, 20);
  EXPECT_EQ(plan.row_runs, (std::vector<IdRange>{{0, 6000}}));
}

TEST(IdRangeTest, IntersectionOfNormalizedRunsIsNormalized) {
  const std::vector<IdRange> a = NormalizeRanges({{0, 9}, {20, 29}});
  const std::vector<IdRange> b = NormalizeRanges({{5, 24}, {28, 40}});
  EXPECT_EQ(IntersectRanges(a, b),
            (std::vector<IdRange>{{5, 9}, {20, 24}, {28, 29}}));
  EXPECT_TRUE(IntersectRanges(a, std::vector<IdRange>{{10, 19}}).empty());
  EXPECT_TRUE(IntersectRanges(a, {}).empty());
  // Ranges ending at the largest id neither wrap nor merge wrongly.
  const std::size_t top = ~std::size_t{0};
  EXPECT_EQ(NormalizeRanges({{top - 1, top}, {top, top}, {0, 0}}),
            (std::vector<IdRange>{{0, 0}, {top - 1, top}}));
  EXPECT_EQ(RangesSize(std::vector<IdRange>{{3, 3}, {7, 9}}), 4u);
}

}  // namespace
}  // namespace tsc
