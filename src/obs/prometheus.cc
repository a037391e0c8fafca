#include "obs/prometheus.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace tsc::obs {
namespace {

using prometheus_detail::FamilySplit;
using prometheus_detail::SanitizeMetricName;
using prometheus_detail::SplitFamily;

/// Prometheus sample values: integral doubles print without a fraction,
/// everything else with enough digits to round-trip dashboards.
std::string FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

/// Label-value escaping per the exposition format: backslash, quote and
/// newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// `{label="value"}` or "" for label-free samples; extra pre-rendered
/// labels (the histogram `le`) append after the dimension label.
std::string LabelSet(const FamilySplit& split, const std::string& extra) {
  if (split.label_name.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!split.label_name.empty()) {
    out += split.label_name + "=\"" + EscapeLabelValue(split.label_value) +
           "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

void EmitFamilyHeader(std::string* out, const std::string& family_sanitized,
                      const std::string& dotted, const char* type) {
  *out += "# HELP " + family_sanitized + " TSC instrument " + dotted + "\n";
  *out += "# TYPE " + family_sanitized + " " + type + "\n";
}

}  // namespace

namespace prometheus_detail {

std::string SanitizeMetricName(const std::string& name) {
  std::string out = "tsc_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

FamilySplit SplitFamily(const std::string& name) {
  // server.latency_us.<endpoint> -> family server.latency_us, endpoint
  // label.
  constexpr std::string_view kLatency = "server.latency_us.";
  FamilySplit split;
  if (name.size() > kLatency.size() && name.starts_with(kLatency)) {
    split.family = name.substr(0, kLatency.size() - 1);
    split.label_name = "endpoint";
    split.label_value = name.substr(kLatency.size());
    return split;
  }
  split.family = name;
  return split;
}

}  // namespace prometheus_detail

std::string ToPrometheusText(const StatsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  // The snapshot vectors are sorted by dotted name, so all members of a
  // labeled family are adjacent: emit the HELP/TYPE header whenever the
  // family changes and samples always follow their TYPE line.
  std::string open_family;

  for (const auto& [name, value] : snapshot.counters) {
    const FamilySplit split = SplitFamily(name);
    const std::string family = SanitizeMetricName(split.family) + "_total";
    if (family != open_family) {
      EmitFamilyHeader(&out, family, split.family, "counter");
      open_family = family;
    }
    char number[32];
    std::snprintf(number, sizeof(number), "%" PRIu64, value);
    out += family + LabelSet(split, "") + " " + number + "\n";
  }

  open_family.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    const FamilySplit split = SplitFamily(name);
    const std::string family = SanitizeMetricName(split.family);
    if (family != open_family) {
      EmitFamilyHeader(&out, family, split.family, "gauge");
      open_family = family;
    }
    out += family + LabelSet(split, "") + " " + FormatValue(value) + "\n";
  }

  open_family.clear();
  for (const auto& [name, summary] : snapshot.histograms) {
    const FamilySplit split = SplitFamily(name);
    const std::string family = SanitizeMetricName(split.family);
    if (family != open_family) {
      EmitFamilyHeader(&out, family, split.family, "histogram");
      open_family = family;
    }
    // Cumulative le series over the log2 buckets, trimmed to the highest
    // populated bucket (the remaining bounds would repeat the total).
    std::size_t top = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (summary.buckets[i] != 0) top = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= top; ++i) {
      cumulative += summary.buckets[i];
      char le[32];
      std::snprintf(le, sizeof(le), "le=\"%llu\"",
                    static_cast<unsigned long long>(1ull << i));
      char number[32];
      std::snprintf(number, sizeof(number), "%" PRIu64, cumulative);
      out += family + "_bucket" + LabelSet(split, le) + " " + number + "\n";
    }
    char count[32];
    std::snprintf(count, sizeof(count), "%" PRIu64, summary.count);
    out += family + "_bucket" + LabelSet(split, "le=\"+Inf\"") + " " + count +
           "\n";
    out += family + "_sum" + LabelSet(split, "") + " " +
           FormatValue(summary.sum) + "\n";
    out += family + "_count" + LabelSet(split, "") + " " + count + "\n";
  }
  return out;
}

}  // namespace tsc::obs
