#include "obs/trace.h"

#include <fstream>

#include "util/json_writer.h"

namespace tsc::obs {
namespace {

constinit thread_local std::uint32_t t_span_depth = 0;

}  // namespace

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  next_ = 0;
  wrapped_ = false;
  dropped_.store(0, std::memory_order_relaxed);
  origin_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

double TraceRecorder::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceRecorder::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wrapped_) return ring_;
  std::vector<TraceEvent> ordered;
  ordered.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ordered.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return ordered;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (const TraceEvent& event : events) {
    json.BeginObject();
    json.KV("name", event.name);
    json.KV("ph", "X");
    json.KV("ts", event.ts_us);
    json.KV("dur", event.dur_us);
    json.KV("pid", std::uint64_t{1});
    json.KV("tid", std::uint64_t{event.tid});
    json.Key("args").BeginObject();
    json.KV("depth", std::uint64_t{event.depth});
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.KV("displayTimeUnit", "ms");
  json.KV("droppedEvents", dropped_events());
  json.EndObject();
  return json.Release();
}

Status TraceRecorder::ExportChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot create trace file: " + path);
  out << ToChromeTraceJson() << "\n";
  if (!out) return Status::IoError("trace write failed: " + path);
  return Status::Ok();
}

std::uint32_t TraceSpan::CurrentDepth() { return t_span_depth; }

#ifndef TSC_OBS_DISABLED

void TraceSpan::Start(std::string name) {
  active_ = true;
  name_ = std::move(name);
  depth_ = t_span_depth++;
  start_us_ = TraceRecorder::Default().NowMicros();
}

void TraceSpan::Finish() {
  if (!active_) return;
  --t_span_depth;
  TraceRecorder& recorder = TraceRecorder::Default();
  // A span that outlives a Disable() is still recorded; harmless, and it
  // keeps begin/end bookkeeping trivial.
  TraceEvent event;
  event.name = std::move(name_);
  event.ts_us = start_us_;
  event.dur_us = recorder.NowMicros() - start_us_;
  event.tid = CurrentThreadId();
  event.depth = depth_;
  recorder.Record(std::move(event));
}

#endif  // TSC_OBS_DISABLED

}  // namespace tsc::obs
