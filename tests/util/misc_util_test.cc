#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/table_printer.h"

namespace tsc {
namespace {

// ----------------------------- flags --------------------------------------

TEST(FlagParserTest, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=100", "--ratio=2.5", "--name=phone"};
  FlagParser flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 2.5);
  EXPECT_EQ(flags.GetString("name", ""), "phone");
}

TEST(FlagParserTest, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "7"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 0), 7);
}

TEST(FlagParserTest, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_FALSE(flags.GetBool("other", false));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_EQ(flags.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagParserTest, ListFlags) {
  const char* argv[] = {"prog", "--space=1,2.5,10", "--sizes=100,200"};
  FlagParser flags(3, const_cast<char**>(argv));
  const std::vector<double> space = flags.GetDoubleList("space", {});
  ASSERT_EQ(space.size(), 3u);
  EXPECT_DOUBLE_EQ(space[1], 2.5);
  const std::vector<std::int64_t> sizes = flags.GetIntList("sizes", {});
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[1], 200);
}

TEST(FlagParserTest, PositionalCollected) {
  const char* argv[] = {"prog", "input.csv", "--n=1"};
  FlagParser flags(3, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
}

// -------------------------- table_printer ---------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"method", "rmspe"});
  table.AddRow({"svd", "0.05"});
  table.AddRow({"svdd", "0.01"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("svdd"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_NE(table.ToString().find('1'), std::string::npos);
}

TEST(TablePrinterTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 3), "1.23");
  EXPECT_EQ(TablePrinter::Percent(12.3, 3), "12.3%");
}

}  // namespace
}  // namespace tsc
