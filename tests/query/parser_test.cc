#include "query/parser.h"

#include <gtest/gtest.h>

namespace tsc {
namespace {

TEST(ParserTest, MinimalQuery) {
  const auto ast = ParseQuery("select count(*)");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->aggregates.size(), 1u);
  EXPECT_EQ(ast->aggregates[0], AggregateFn::kCount);
  EXPECT_TRUE(ast->constraints.empty());
}

TEST(ParserTest, MultipleAggregates) {
  const auto ast = ParseQuery("select sum(value), avg(value), max(*)");
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(ast->aggregates,
            (std::vector<AggregateFn>{AggregateFn::kSum, AggregateFn::kAvg,
                                      AggregateFn::kMax}));
}

TEST(ParserTest, WhereWithInRanges) {
  const auto ast =
      ParseQuery("select sum(value) where row in 0:99,150 and col in 3,5:9");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->constraints.size(), 2u);
  EXPECT_TRUE(ast->constraints[0].is_row);
  EXPECT_EQ(ast->constraints[0].ranges,
            (std::vector<IdRange>{{0, 99}, {150, 150}}));
  EXPECT_FALSE(ast->constraints[1].is_row);
  EXPECT_EQ(ast->constraints[1].ranges,
            (std::vector<IdRange>{{3, 3}, {5, 9}}));
}

TEST(ParserTest, BetweenConstraint) {
  const auto ast =
      ParseQuery("SELECT avg(value) WHERE col BETWEEN 10 AND 20");
  ASSERT_TRUE(ast.ok());
  ASSERT_EQ(ast->constraints.size(), 1u);
  EXPECT_EQ(ast->constraints[0].ranges,
            (std::vector<IdRange>{{10, 20}}));
}

TEST(ParserTest, BetweenThenAndConstraintDisambiguated) {
  // The AND inside BETWEEN must not terminate the predicate early.
  const auto ast = ParseQuery(
      "select sum(value) where row between 0 and 9 and col between 1 and 2");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->constraints.size(), 2u);
}

TEST(ParserTest, DayAliasForCol) {
  const auto ast = ParseQuery("select min(value) where day in 5");
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(ast->constraints[0].is_row);
}

TEST(ParserTest, RepeatedDimensionAllowed) {
  const auto ast = ParseQuery(
      "select sum(value) where row in 0:99 and row in 50:149");
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(ast->constraints.size(), 2u);  // planner intersects them
}

TEST(ParserTest, ErrorsCarryContext) {
  const auto missing_paren = ParseQuery("select sum value)");
  ASSERT_FALSE(missing_paren.ok());
  EXPECT_NE(missing_paren.status().message().find("position"),
            std::string::npos);
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("sum(value)").ok());                   // no SELECT
  EXPECT_FALSE(ParseQuery("select frobnicate(value)").ok());     // bad fn
  EXPECT_FALSE(ParseQuery("select sum(row)").ok());              // bad arg
  EXPECT_FALSE(ParseQuery("select sum(value) where").ok());      // empty pred
  EXPECT_FALSE(ParseQuery("select sum(value) where row").ok());
  EXPECT_FALSE(ParseQuery("select sum(value) where row in").ok());
  EXPECT_FALSE(ParseQuery("select sum(value) where row in 9:2").ok());
  EXPECT_FALSE(ParseQuery("select sum(value) where value in 1").ok());
  EXPECT_FALSE(ParseQuery("select sum(value) extra").ok());      // trailing
  EXPECT_FALSE(ParseQuery("select sum(value) where row in 1.5").ok());
  EXPECT_FALSE(
      ParseQuery("select sum(value) where row between 9 and 2").ok());
}

}  // namespace
}  // namespace tsc
