#include "obs/slowlog.h"

#include <algorithm>

#include "util/json_writer.h"
#include "util/table_printer.h"

namespace tsc::obs {
namespace {

#ifndef TSC_OBS_DISABLED
/// Min-heap comparator: the heap root is the fastest retained request,
/// i.e. the displacement floor.
bool SlowerThan(const SlowQueryEntry& a, const SlowQueryEntry& b) {
  return a.latency_us > b.latency_us;
}
#endif

void CostsToJson(JsonWriter* json, const QueryCostVector& costs) {
  json->BeginObject();
  json->KV("admission_wait_us", costs.admission_wait_us);
  json->KV("cache_hits", costs.cache_hits);
  json->KV("cache_misses", costs.cache_misses);
  json->KV("blocks_fetched", costs.blocks_fetched);
  json->KV("io_bytes", costs.io_bytes);
  json->KV("rows_scanned", costs.rows_scanned);
  json->KV("delta_probes", costs.delta_probes);
  json->EndObject();
}

}  // namespace

SlowQueryLog::SlowQueryLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  heap_.reserve(capacity_);
}

void SlowQueryLog::Record(SlowQueryEntry entry) {
#ifndef TSC_OBS_DISABLED
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan);
    return;
  }
  if (entry.latency_us <= heap_.front().latency_us) return;
  std::pop_heap(heap_.begin(), heap_.end(), SlowerThan);
  heap_.back() = std::move(entry);
  std::push_heap(heap_.begin(), heap_.end(), SlowerThan);
#else
  (void)entry;
#endif
}

std::vector<SlowQueryEntry> SlowQueryLog::Snapshot() const {
  std::vector<SlowQueryEntry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries = heap_;
  }
  std::sort(entries.begin(), entries.end(),
            [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
              if (a.latency_us != b.latency_us) {
                return a.latency_us > b.latency_us;
              }
              return a.seq < b.seq;
            });
  return entries;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  heap_.clear();
}

std::uint64_t SlowQueryLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::string SlowQueryLog::ToJson(const std::vector<SlowQueryEntry>& entries,
                                 std::size_t capacity) {
  JsonWriter json;
  json.BeginObject();
  json.KV("capacity", static_cast<std::uint64_t>(capacity));
  json.KV("count", static_cast<std::uint64_t>(entries.size()));
  json.Key("entries").BeginArray();
  for (const SlowQueryEntry& entry : entries) {
    json.BeginObject();
    json.KV("seq", entry.seq);
    json.KV("trace_id", entry.trace_id);
    json.KV("endpoint", entry.endpoint);
    json.KV("request", entry.request_line);
    json.KV("status", static_cast<std::int64_t>(entry.http_status));
    json.KV("latency_us", entry.latency_us);
    json.Key("costs");
    CostsToJson(&json, entry.costs);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Release();
}

std::string SlowQueryLog::ToTable(
    const std::vector<SlowQueryEntry>& entries) {
  TablePrinter table({"latency_us", "status", "trace_id", "endpoint",
                      "admission_us", "cache h/m", "blocks", "io_bytes",
                      "rows", "request"});
  for (const SlowQueryEntry& entry : entries) {
    table.AddRow({TablePrinter::Num(entry.latency_us),
                  std::to_string(entry.http_status), entry.trace_id,
                  entry.endpoint,
                  std::to_string(entry.costs.admission_wait_us),
                  std::to_string(entry.costs.cache_hits) + "/" +
                      std::to_string(entry.costs.cache_misses),
                  std::to_string(entry.costs.blocks_fetched),
                  std::to_string(entry.costs.io_bytes),
                  std::to_string(entry.costs.rows_scanned),
                  entry.request_line});
  }
  return table.ToString();
}

}  // namespace tsc::obs
