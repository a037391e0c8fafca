#include "obs/snapshot.h"

#include <fstream>

#include "util/json_writer.h"
#include "util/table_printer.h"

namespace tsc::obs {

std::string StatsSnapshot::ToTable() const {
  TablePrinter table({"metric", "type", "value", "p50", "p90", "p99", "max"});
  for (const auto& [name, value] : counters) {
    table.AddRow({name, "counter", std::to_string(value), "", "", "", ""});
  }
  for (const auto& [name, value] : gauges) {
    table.AddRow({name, "gauge", TablePrinter::Num(value), "", "", "", ""});
  }
  for (const auto& [name, summary] : histograms) {
    table.AddRow({name, "histogram", std::to_string(summary.count),
                  TablePrinter::Num(summary.p50),
                  TablePrinter::Num(summary.p90),
                  TablePrinter::Num(summary.p99),
                  TablePrinter::Num(summary.max)});
  }
  return table.ToString();
}

std::string StatsSnapshot::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) json.KV(name, value);
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) json.KV(name, value);
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, summary] : histograms) {
    json.Key(name).BeginObject();
    json.KV("count", summary.count);
    json.KV("sum", summary.sum);
    json.KV("mean", summary.mean());
    json.KV("p50", summary.p50);
    json.KV("p90", summary.p90);
    json.KV("p99", summary.p99);
    json.KV("max", summary.max);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.Release();
}

Status StatsSnapshot::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot create metrics file: " + path);
  out << ToJson() << "\n";
  if (!out) return Status::IoError("metrics write failed: " + path);
  return Status::Ok();
}

StatsSnapshot TakeSnapshot(const MetricRegistry& registry) {
  StatsSnapshot snapshot;
  snapshot.counters = registry.CounterValues();
  snapshot.gauges = registry.GaugeValues();
  snapshot.histograms = registry.HistogramValues();
  return snapshot;
}

}  // namespace tsc::obs
