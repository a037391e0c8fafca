#include "obs/slowlog.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsc::obs {
namespace {

SlowQueryEntry Entry(double latency_us, const std::string& trace_id) {
  SlowQueryEntry entry;
  entry.trace_id = trace_id;
  entry.endpoint = "query";
  entry.request_line = "GET /api/v1/query?q=SELECT+sum(value)";
  entry.http_status = 200;
  entry.latency_us = latency_us;
  entry.costs.rows_scanned = 10;
  entry.costs.io_bytes = 4096;
  return entry;
}

#ifndef TSC_OBS_DISABLED

TEST(SlowQueryLogTest, KeepsTheKSlowestInOrder) {
  SlowQueryLog log(3);
  log.Record(Entry(100, "a"));
  log.Record(Entry(500, "b"));
  log.Record(Entry(50, "c"));
  log.Record(Entry(300, "d"));   // displaces c (50)
  log.Record(Entry(10, "e"));    // below the floor, rejected
  log.Record(Entry(1000, "f"));  // displaces a (100)

  const std::vector<SlowQueryEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].trace_id, "f");
  EXPECT_EQ(entries[1].trace_id, "b");
  EXPECT_EQ(entries[2].trace_id, "d");
  EXPECT_EQ(log.recorded(), 6u);  // offered, retained or not
}

TEST(SlowQueryLogTest, RecordIfSlowBuildsOnlyEntriesThatRank) {
  SlowQueryLog log(2);
  int built = 0;
  const auto offer = [&](double latency_us, const std::string& id) {
    log.RecordIfSlow(latency_us, [&] {
      ++built;
      return Entry(latency_us, id);
    });
  };
  offer(100, "a");  // the log has room: built and kept
  offer(200, "b");
  offer(50, "c");   // at or below the floor of a full log: never built
  offer(100, "d");
  EXPECT_EQ(built, 2);
  offer(300, "e");  // displaces a (100)
  EXPECT_EQ(built, 3);
  const std::vector<SlowQueryEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].trace_id, "e");
  EXPECT_EQ(entries[1].trace_id, "b");
  EXPECT_EQ(log.recorded(), 5u);  // skipped offers count too
}

TEST(SlowQueryLogTest, TiesBreakBySequence) {
  SlowQueryLog log(4);
  log.Record(Entry(100, "first"));
  log.Record(Entry(100, "second"));
  const std::vector<SlowQueryEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].trace_id, "first");
  EXPECT_EQ(entries[1].trace_id, "second");
  EXPECT_LT(entries[0].seq, entries[1].seq);
}

TEST(SlowQueryLogTest, ClearEmptiesRetainedEntries) {
  SlowQueryLog log(4);
  log.Record(Entry(100, "a"));
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  // New entries record fine after a clear.
  log.Record(Entry(200, "b"));
  ASSERT_EQ(log.Snapshot().size(), 1u);
}

#endif  // TSC_OBS_DISABLED

TEST(SlowQueryLogTest, JsonCarriesIdentityOutcomeAndCosts) {
  std::vector<SlowQueryEntry> entries;
  entries.push_back(Entry(123.5, "deadbeefdeadbeef"));
  const std::string json = SlowQueryLog::ToJson(entries, 64);
  EXPECT_NE(json.find("\"capacity\":64"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":\"deadbeefdeadbeef\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"endpoint\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":200"), std::string::npos);
  EXPECT_NE(json.find("\"rows_scanned\":10"), std::string::npos);
  EXPECT_NE(json.find("\"io_bytes\":4096"), std::string::npos);
}

TEST(SlowQueryLogTest, TableRendersOneRowPerEntry) {
  std::vector<SlowQueryEntry> entries;
  entries.push_back(Entry(500.0, "aaaa"));
  entries.push_back(Entry(100.0, "bbbb"));
  const std::string table = SlowQueryLog::ToTable(entries);
  EXPECT_NE(table.find("aaaa"), std::string::npos) << table;
  EXPECT_NE(table.find("bbbb"), std::string::npos);
  EXPECT_NE(table.find("latency_us"), std::string::npos);
}

}  // namespace
}  // namespace tsc::obs
