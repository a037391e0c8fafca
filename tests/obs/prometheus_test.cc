#include "obs/prometheus.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace tsc::obs {
namespace {

using prometheus_detail::SanitizeMetricName;
using prometheus_detail::SplitFamily;

/// Splits exposition text into lines (every line must end in \n).
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Structural check of one exposition document: every sample line is
/// `name[{labels}] value`, every sample's family has a preceding # TYPE,
/// and metric names are legal ([a-zA-Z_:][a-zA-Z0-9_:]*).
void CheckParsesAsPrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::map<std::string, std::string> typed;  // family -> type
  for (const std::string& line : Lines(text)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream in(line.substr(7));
      std::string family, type;
      in >> family >> type;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      typed[family] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // Sample: name, optional {labels}, space, value.
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
      ASSERT_TRUE(ok) << "bad metric name char in: " << line;
    }
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      value_start = close + 1;
    }
    ASSERT_LT(value_start, line.size()) << line;
    ASSERT_EQ(line[value_start], ' ') << line;
    const std::string value = line.substr(value_start + 1);
    ASSERT_FALSE(value.empty()) << line;
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      ASSERT_EQ(*end, '\0') << "unparseable value in: " << line;
    }
    // Family = name minus histogram/counter sample suffix.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed.count(family.substr(0, family.size() - s.size()))) {
        family = family.substr(0, family.size() - s.size());
        break;
      }
    }
    EXPECT_TRUE(typed.count(family)) << "sample before # TYPE: " << line;
  }
}

TEST(PrometheusTest, NameSanitizationAndFamilySplitting) {
  EXPECT_EQ(SanitizeMetricName("block_cache.hits"), "tsc_block_cache_hits");
  EXPECT_EQ(SanitizeMetricName("io.bytes_read"), "tsc_io_bytes_read");

  auto split = SplitFamily("server.latency_us.query");
  EXPECT_EQ(split.family, "server.latency_us");
  EXPECT_EQ(split.label_name, "endpoint");
  EXPECT_EQ(split.label_value, "query");

  // Only the latency family carries a dimension.
  split = SplitFamily("request.serialize_us");
  EXPECT_EQ(split.family, "request.serialize_us");
  EXPECT_TRUE(split.label_name.empty());

  split = SplitFamily("block_cache.hits");
  EXPECT_EQ(split.family, "block_cache.hits");
  EXPECT_TRUE(split.label_name.empty());
}

#ifndef TSC_OBS_DISABLED

TEST(PrometheusTest, CountersGaugesAndLabelsSerialize) {
  MetricRegistry registry;
  registry.GetCounter("block_cache.hits").Add(42);
  registry.GetCounter("server.requests").Add(7);
  registry.GetGauge("build.resolved_candidates").Set(1.5);
  const std::string text = ToPrometheusText(TakeSnapshot(registry));
  CheckParsesAsPrometheusText(text);

  EXPECT_NE(text.find("# TYPE tsc_block_cache_hits_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsc_block_cache_hits_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("tsc_server_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tsc_build_resolved_candidates gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("tsc_build_resolved_candidates 1.5\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTest, HistogramsEmitCumulativeBuckets) {
  MetricRegistry registry;
  Histogram& latency = registry.GetHistogram("server.latency_us.query");
  latency.Record(0.5);  // bucket 0: [0, 1)
  latency.Record(3.0);  // bucket 2: [2, 4)
  latency.Record(3.5);
  latency.Record(100.0);  // bucket 7: [64, 128)
  registry.GetHistogram("server.latency_us.data").Record(2.0);
  const std::string text = ToPrometheusText(TakeSnapshot(registry));
  CheckParsesAsPrometheusText(text);

  EXPECT_NE(text.find("# TYPE tsc_server_latency_us histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("tsc_server_latency_us_bucket{endpoint=\"query\",le=\"1\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("tsc_server_latency_us_bucket{endpoint=\"query\",le=\"4\"} 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find(
                "tsc_server_latency_us_bucket{endpoint=\"query\",le=\"128\"} "
                "4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(
                "tsc_server_latency_us_bucket{endpoint=\"query\",le=\"+Inf\"} "
                "4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsc_server_latency_us_count{endpoint=\"query\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsc_server_latency_us_sum{endpoint=\"query\"} 107\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsc_server_latency_us_count{endpoint=\"data\"} 1\n"),
            std::string::npos)
      << text;
  // One shared family header: the TYPE line appears exactly once.
  const std::string type_line = "# TYPE tsc_server_latency_us histogram\n";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));

  // Cumulative counts never decrease along the le series.
  std::uint64_t previous = 0;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("tsc_server_latency_us_bucket{endpoint=\"query\"", 0) !=
        0) {
      continue;
    }
    const std::uint64_t count = std::strtoull(
        line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    EXPECT_GE(count, previous) << line;
    previous = count;
  }
}

#endif  // TSC_OBS_DISABLED

TEST(PrometheusTest, LabelValuesAreEscaped) {
  MetricRegistry registry;
  registry.GetGauge("server.latency_us.we\"ird").Set(1.0);
  const std::string text = ToPrometheusText(TakeSnapshot(registry));
  EXPECT_NE(text.find("endpoint=\"we\\\"ird\""), std::string::npos) << text;
}

TEST(PrometheusTest, EmptySnapshotSerializesToEmptyText) {
  MetricRegistry registry;
  EXPECT_TRUE(ToPrometheusText(TakeSnapshot(registry)).empty());
}

}  // namespace
}  // namespace tsc::obs
