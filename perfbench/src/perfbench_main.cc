// Load generator, validator and layer tracer for the repository benchmark
// (see perfbench/README.md). run.py drives it; each subcommand prints one
// JSON object on stdout:
//
//   load         closed-loop HTTP load against a running `tsctool serve`,
//                every response checked against the in-process oracle;
//                --trace=1 adds the per-layer metrics and writes spans
//   evaluate     model error and size against the raw input matrix
//   build-trace  the 3-pass build in process, timed per pass through a
//                RowSource wrapper, plus one bare streaming pass

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/svdd_compressor.h"
#include "cube/rollup.h"
#include "http_client.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "requests.h"
#include "server/data_api.h"
#include "storage/row_store.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// user+sys CPU seconds of a process, from /proc/<pid>/stat.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)": state is #3; utime #14, stime #15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A /proc/<pid>/status field in KiB (VmHWM, VmRSS); "self" works too.
double ProcStatusKib(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// Milliseconds of a fixed integer loop: a machine-speed reading that no
/// change to the program can move, recorded beside each run's figures.
double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  const double ms = 1e-3 * MicrosBetween(start, Clock::now());
  return x == 0 ? -ms : ms;  // keeps the loop observable
}

/// Reads `key=value` out of an X-Query-Cost header.
double CostField(const std::string& cost, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = cost.find(needle);
  while (pos != std::string::npos && pos > 0 && cost[pos - 1] != ' ') {
    pos = cost.find(needle, pos + 1);
  }
  if (pos == std::string::npos) return 0.0;
  return std::strtod(cost.c_str() + pos + needle.size(), nullptr);
}

/// Reads one counter out of /metrics?format=json (flat "name":value).
double CounterFromJson(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

std::string FetchMetricsJson(int port) {
  KeepAliveClient client(port);
  HttpResponse response;
  if (!client.Get("/metrics?format=json", false, &response) ||
      response.status != 200) {
    return {};
  }
  return response.body;
}

/// One request as sent and answered.
struct Sample {
  Request request;
  bool transport_ok = false;
  int status = 0;
  std::string body;
  std::string trace_id;
  std::string cost;
  double start_us = 0.0;  ///< since the benchmark epoch
  double latency_us = 0.0;
  int thread = 0;
  bool probe = false;  ///< dealt by the probe mix
};

struct Window {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;  ///< server user+sys CPU spent in the window
};

/// One client stream per connection, derived from (seed, salt, client
/// index), so the same seed replays the same request sequence.
std::vector<ClientStream> MakeStreams(std::size_t connections,
                                      std::uint64_t seed, std::uint64_t salt) {
  std::vector<ClientStream> streams;
  for (std::size_t t = 0; t < connections; ++t) {
    streams.emplace_back(seed * 0x9e3779b97f4a7c15ull + salt * 1000003ull + t + 1);
  }
  return streams;
}

/// Runs one closed-loop client per stream for `seconds`. The streams
/// carry on where the previous window left them, so slices of a window
/// deal whole decks between them.
Window RunWindow(const RequestGenerator& generator,
                 std::vector<ClientStream>* streams, int port, int server_pid,
                 double seconds, bool debug, Clock::time_point epoch) {
  const std::size_t connections = streams->size();
  std::vector<std::vector<Sample>> per_thread(connections);
  Window window;
  const Clock::time_point start = Clock::now();
  const double cpu_before = ProcessCpuSeconds(server_pid);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      ClientStream& stream = (*streams)[t];
      KeepAliveClient client(port);
      while (Clock::now() < deadline) {
        Sample sample;
        sample.request = generator.Next(&stream);
        sample.thread = static_cast<int>(t);
        HttpResponse response;
        const Clock::time_point sent = Clock::now();
        sample.transport_ok = client.Get(sample.request.target, debug, &response);
        const Clock::time_point done = Clock::now();
        sample.start_us = MicrosBetween(epoch, sent);
        sample.latency_us = MicrosBetween(sent, done);
        sample.status = response.status;
        sample.body = std::move(response.body);
        sample.trace_id = std::move(response.trace_id);
        sample.cost = std::move(response.query_cost);
        // A dead server must not turn the loop into a spin that piles
        // up millions of failed samples.
        if (!sample.transport_ok) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        per_thread[t].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  window.wall_s = SecondsSince(start);
  window.server_cpu_s = ProcessCpuSeconds(server_pid) - cpu_before;
  for (auto& samples : per_thread) {
    for (Sample& sample : samples) window.samples.push_back(std::move(sample));
  }
  return window;
}

/// Adds `part`'s samples and times to `whole`.
void Append(Window* whole, Window part) {
  for (Sample& sample : part.samples) whole->samples.push_back(std::move(sample));
  whole->wall_s += part.wall_s;
  whole->server_cpu_s += part.server_cpu_s;
}

/// Slices of an untraced run, and untraced/traced slice pairs of a traced
/// run; each slice gives kProbeShare of its time to the probe mix.
constexpr std::uint64_t kSlices = 5;
constexpr std::uint64_t kTraceSlices = 4;
constexpr double kProbeShare = 0.25;

/// Checks every sample against the oracle; returns the failure count and
/// marks each sample's verdict in `correct` (parallel to `samples`).
/// Distinct targets are answered once, on `threads` threads (the load
/// is over by then, so they may use every core).
std::size_t Validate(const Oracle& oracle,
                     const std::vector<const Sample*>& samples,
                     std::size_t threads, std::vector<bool>* correct,
                     std::map<std::string, std::string>* first_mismatch) {
  std::map<std::string, const Request*> distinct;
  for (const Sample* sample : samples) {
    distinct.emplace(sample->request.target, &sample->request);
  }
  std::vector<std::pair<const std::string*, const Request*>> work;
  for (const auto& [target, request] : distinct) work.emplace_back(&target, request);
  std::vector<std::string> expected(work.size());
  std::vector<char> expected_ok(work.size(), 0);  // written concurrently
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        auto body = oracle.Expected(*work[i].second);
        if (body.ok()) {
          expected[i] = std::move(*body);
          expected_ok[i] = 1;
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < work.size(); ++i) index[*work[i].first] = i;

  std::size_t failed = 0;
  correct->assign(samples.size(), false);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const Sample& sample = *samples[s];
    const std::size_t i = index[sample.request.target];
    const bool ok =
        sample.transport_ok && sample.status == 200 && expected_ok[i] &&
        Oracle::Comparable(sample.request, sample.body) == expected[i];
    (*correct)[s] = ok;
    if (!ok) {
      ++failed;
      if (first_mismatch->empty()) {
        (*first_mismatch)["target"] = sample.request.target;
        (*first_mismatch)["status"] = std::to_string(sample.status);
        (*first_mismatch)["got"] = sample.body.substr(0, 200);
        (*first_mismatch)["want"] = expected[i].substr(0, 200);
      }
    }
  }
  return failed;
}

/// Collects named values; serializes them as one JSON object by name.
class MetricSink {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::string ToJson() const {
    tsc::JsonWriter json;
    json.BeginObject();
    for (const auto& [name, value] : values_) json.KV(name, value);
    json.EndObject();
    return json.str();
  }

 private:
  std::map<std::string, double> values_;
};

/// Span in Chrome trace-event form: "X" events with trace/span ids.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::string trace_id;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string cost;
};

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  tsc::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (const Span& span : spans) {
    json.BeginObject();
    json.KV("name", span.name);
    json.KV("ph", "X");
    json.KV("ts", span.start_us);
    json.KV("dur", span.dur_us);
    json.KV("pid", std::uint64_t{1});
    json.KV("tid", static_cast<std::uint64_t>(span.tid));
    json.Key("args").BeginObject();
    json.KV("trace_id", span.trace_id);
    json.KV("span_id", span.span_id);
    json.KV("parent_id", span.parent_id);
    if (!span.cost.empty()) json.KV("cost", span.cost);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << json.str() << "\n";
}

/// Times `fn` over `calls` calls and returns ns per call.
template <typename Fn>
double NanosPerCall(std::size_t calls, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return 1e3 * MicrosBetween(start, Clock::now()) / static_cast<double>(calls);
}

/// Replays traced requests in process, timing each layer's public entry
/// point; adds the per-layer metrics and the child spans.
void TraceLayers(Oracle& oracle,
                 const std::vector<const Sample*>& traced, int port,
                 const std::string& metrics_before, std::uint64_t seed,
                 MetricSink* sink, std::vector<Span>* spans) {
  const tsc::SvddModel& model = oracle.model();
  const tsc::QueryExecutor& executor = oracle.executor();
  tsc::DiskBackedStore* disk = oracle.disk_store();

  // Counters the server reports per request in X-Query-Cost.
  std::vector<double> admission, batch_fill, rows_scanned, nodes_read,
      delta_probes, blocks, io_bytes;
  double hits = 0.0, misses = 0.0;
  for (const Sample* sample : traced) {
    const std::string& cost = sample->cost;
    if (sample->request.op == Op::kCell) {
      batch_fill.push_back(CostField(cost, "batch_fill"));
    }
    // The per-request counters describe the workload's own traffic; the
    // probe mix's many light requests would otherwise outvote it.
    if (sample->probe) continue;
    admission.push_back(CostField(cost, "admission_wait_us"));
    rows_scanned.push_back(CostField(cost, "rows_scanned"));
    nodes_read.push_back(CostField(cost, "agg_nodes_read"));
    delta_probes.push_back(CostField(cost, "delta_probes"));
    blocks.push_back(CostField(cost, "blocks_fetched"));
    io_bytes.push_back(CostField(cost, "io_bytes"));
    hits += CostField(cost, "cache_hits");
    misses += CostField(cost, "cache_misses");
  }
  sink->Set("server.admission_wait_us_p50", Quantile(admission, 0.5));
  sink->Set("server.batch_fill_mean", Mean(batch_fill));
  sink->Set("query.rows_scanned_per_req", Mean(rows_scanned));
  sink->Set("cube.nodes_read_per_req", Mean(nodes_read));
  sink->Set("core.delta_probes_per_req", Mean(delta_probes));
  sink->Set("storage.blocks_fetched_per_req", Mean(blocks));
  sink->Set("storage.io_bytes_per_req", Mean(io_bytes));
  sink->Set("storage.cache_hit_ratio",
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0);

  const std::string metrics_after = FetchMetricsJson(port);
  const double lookups = CounterFromJson(metrics_after, "delta.lookups") -
                         CounterFromJson(metrics_before, "delta.lookups");
  const double delta_hits = CounterFromJson(metrics_after, "delta.hits") -
                            CounterFromJson(metrics_before, "delta.hits");
  sink->Set("core.delta_hit_ratio", lookups > 0.0 ? delta_hits / lookups : 0.0);

  // In-process replay, capped per class so heavy classes stay bounded.
  constexpr std::size_t kReplayCap[kOpCount] = {2000, 1000, 500, 64, 200, 64};
  std::size_t replayed[kOpCount] = {};
  std::vector<double> exec_us[kOpCount];
  std::vector<double> overhead_us;
  std::vector<double> region_sum_us;
  std::uint64_t next_span = 1u << 30;  // above every request span's id
  for (std::size_t s = 0; s < traced.size(); ++s) {
    const Sample* sample = traced[s];
    const Request& request = sample->request;
    const int op = static_cast<int>(request.op);
    if (replayed[op] >= kReplayCap[op]) continue;
    ++replayed[op];
    const Clock::time_point start = Clock::now();
    std::string name;
    switch (request.op) {
      case Op::kCell:
        name = disk ? "storage.disk_reconstruct_cell" : "core.reconstruct_cell";
        if (disk) {
          (void)disk->ReconstructCell(request.row, request.col);
        } else {
          (void)model.ReconstructCell(request.row, request.col);
        }
        break;
      case Op::kRow:
      case Op::kGroupBy:
        name = "query.execute";
        (void)executor.Execute(request.sql);
        break;
      default: {
        name = "query.execute_data_request";
        auto resolved = tsc::server::ResolveDataRequest(
            request.params, executor.rows(), executor.cols(),
            tsc::server::DataApiLimits{});
        if (resolved.ok()) {
          (void)tsc::server::ExecuteDataRequest(executor, *resolved);
        }
        break;
      }
    }
    const Clock::time_point end = Clock::now();
    const double us = MicrosBetween(start, end);
    exec_us[op].push_back(us);
    if (request.op == Op::kCell || request.op == Op::kRow) {
      overhead_us.push_back(sample->latency_us - us);
    }
    Span span;
    span.name = name;
    span.start_us = sample->start_us;  // aligned under its request span
    span.dur_us = us;
    span.tid = sample->thread;
    span.trace_id = sample->trace_id;
    span.span_id = next_span++;
    span.parent_id = s + 1;  // the request span's id
    spans->push_back(std::move(span));

    // Cube layer: one RegionSum over each avg panel's whole region.
    const tsc::AggregateHierarchy* rollup = executor.rollup();
    if (rollup != nullptr && request.op == Op::kAvg) {
      const std::size_t row0 = std::stoul(request.params.at("rows"));
      const std::size_t row1 = std::stoul(
          request.params.at("rows").substr(request.params.at("rows").find(':') + 1));
      const tsc::IdRange rows[] = {{row0, row1}};
      const tsc::IdRange cols[] = {{std::stoul(request.params.at("after")),
                                    std::stoul(request.params.at("before"))}};
      tsc::RollupStats stats;
      const Clock::time_point cube_start = Clock::now();
      (void)rollup->RegionSum(rows, cols, &stats);
      region_sum_us.push_back(MicrosBetween(cube_start, Clock::now()));
    }
  }
  sink->Set("server.overhead_us_p50", Quantile(overhead_us, 0.5));
  sink->Set("query.execute_us_p50.row",
            Quantile(exec_us[static_cast<int>(Op::kRow)], 0.5));
  sink->Set("query.execute_us_p50.groupby",
            Quantile(exec_us[static_cast<int>(Op::kGroupBy)], 0.5));
  sink->Set("query.data_us_p50.avg",
            Quantile(exec_us[static_cast<int>(Op::kAvg)], 0.5));
  sink->Set("query.data_us_p50.max",
            Quantile(exec_us[static_cast<int>(Op::kMax)], 0.5));
  sink->Set("query.data_us_p50.region",
            Quantile(exec_us[static_cast<int>(Op::kRegion)], 0.5));
  sink->Set("cube.region_sum_us_p50", Quantile(region_sum_us, 0.5));

  // Core and linalg kernels, timed over large batches of calls.
  tsc::Rng rng(seed ^ 0xc0ffeeull);
  const std::size_t rows = model.rows();
  const std::size_t cols = model.cols();
  std::vector<std::pair<std::size_t, std::size_t>> cells(20000);
  for (auto& [r, c] : cells) {
    r = static_cast<std::size_t>(rng.UniformUint64(rows));
    c = static_cast<std::size_t>(rng.UniformUint64(cols));
  }
  double checksum = 0.0;
  sink->Set("core.cell_ns", NanosPerCall(cells.size(), [&](std::size_t i) {
              checksum += model.ReconstructCell(cells[i].first, cells[i].second);
            }));
  std::vector<double> row_out(cols);
  sink->Set("core.row_us", 1e-3 * NanosPerCall(10000, [&](std::size_t i) {
              model.ReconstructRow(cells[i].first, row_out);
              checksum += row_out[i % cols];
            }));
  const std::size_t k = model.k();
  std::vector<double> a(k * cols), x(cols), y(k);
  for (double& v : a) v = rng.UniformDouble();
  for (double& v : x) v = rng.UniformDouble();
  sink->Set("linalg.gemv_ns", NanosPerCall(100000, [&](std::size_t) {
              tsc::kernels::Gemv(a.data(), k, cols, cols, x.data(), y.data());
            }));
  checksum += y[0];
  tsc::Matrix b(2 * cols, cols);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < cols; ++j) b(i, j) = rng.Gaussian();
  }
  tsc::Matrix gram(cols, cols);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t p = 0; p < cols; ++p) {
      for (std::size_t q = 0; q <= p; ++q) gram(p, q) += b(i, p) * b(i, q);
    }
  }
  for (std::size_t p = 0; p < cols; ++p) {
    for (std::size_t q = 0; q < p; ++q) gram(q, p) = gram(p, q);
  }
  std::vector<double> solve_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    auto eigen = tsc::SymmetricEigen(gram);
    solve_ms.push_back(1e-3 * MicrosBetween(start, Clock::now()));
    if (eigen.ok()) checksum += eigen->eigenvalues[0];
  }
  sink->Set("linalg.eigensolve_ms", Quantile(solve_ms, 0.5));
  if (!std::isfinite(checksum)) std::cerr << "non-finite checksum\n";
}

int CmdLoad(const tsc::FlagParser& flags) {
  const std::string workload = flags.GetString("workload", "");
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const int server_pid = static_cast<int>(flags.GetInt("server-pid", 0));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const double warmup_s = flags.GetDouble("warmup-s", 1.0);
  const std::size_t connections =
      static_cast<std::size_t>(flags.GetInt("connections", 2));
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::size_t cache_blocks =
      static_cast<std::size_t>(flags.GetInt("cache-blocks", 0));
  const std::string scratch = flags.GetString("scratch", "perfbench_oracle");

  auto oracle = Oracle::Open(flags.GetString("model", ""), cache_blocks, scratch);
  if (!oracle.ok()) {
    std::cerr << "oracle: " << oracle.status().ToString() << "\n";
    return 1;
  }
  const std::size_t rows = (*oracle)->model().rows();
  const std::size_t cols = (*oracle)->model().cols();
  auto main_mix = RequestGenerator::Create(workload, Mix::kMain, rows, cols);
  auto probe_mix = RequestGenerator::Create(workload, Mix::kProbe, rows, cols);
  if (!main_mix.ok() || !probe_mix.ok()) {
    std::cerr << (main_mix.ok() ? probe_mix : main_mix).status().ToString() << "\n";
    return 1;
  }
  const double calibration_before_ms = CalibrationMs();
  const Clock::time_point epoch = Clock::now();

  // Each slice runs the main mix, then the probe mix, for their shares
  // of the slice. Alternating many short slices puts a drift in the
  // machine's speed on every class alike. A traced run follows each
  // untraced slice with a traced one, so the drift also falls on both
  // sides of tracing's price.
  std::vector<ClientStream> streams[2][2];  // [probe][traced]
  for (int probe = 0; probe < 2; ++probe) {
    for (int debug = 0; debug < 2; ++debug) {
      streams[probe][debug] = MakeStreams(connections, seed, 1 + 2 * probe + debug);
    }
  }
  std::vector<ClientStream> warmup_streams[2] = {MakeStreams(connections, seed, 0),
                                                 MakeStreams(connections, seed, 5)};
  const RequestGenerator* mixes[2] = {&*main_mix, &*probe_mix};
  const double share[2] = {1.0 - kProbeShare, kProbeShare};
  Window warmup;
  for (int probe = 0; probe < 2; ++probe) {
    Append(&warmup, RunWindow(*mixes[probe], &warmup_streams[probe], port,
                              server_pid, warmup_s * share[probe], false, epoch));
  }
  Window measured[2];  // [probe], untraced
  Window traced;
  std::string metrics_before;
  if (trace) metrics_before = FetchMetricsJson(port);
  const std::uint64_t slices = trace ? kTraceSlices : kSlices;
  const double slice_s = seconds / static_cast<double>(trace ? 2 * slices : slices);
  for (std::uint64_t slice = 0; slice < slices; ++slice) {
    for (int debug = 0; debug < (trace ? 2 : 1); ++debug) {
      for (int probe = 0; probe < 2; ++probe) {
        Window part = RunWindow(*mixes[probe], &streams[probe][debug], port,
                                server_pid, slice_s * share[probe], debug != 0,
                                epoch);
        for (Sample& sample : part.samples) sample.probe = probe != 0;
        Append(debug ? &traced : &measured[probe], std::move(part));
      }
    }
  }
  const double hwm_kib = ProcStatusKib(std::to_string(server_pid), "VmHWM");
  const double calibration_ms = 0.5 * (calibration_before_ms + CalibrationMs());

  std::vector<const Sample*> all;
  for (const Window* window : {&warmup, &measured[0], &measured[1], &traced}) {
    for (const Sample& sample : window->samples) all.push_back(&sample);
  }
  std::vector<bool> correct;
  std::map<std::string, std::string> mismatch;
  const std::size_t failed =
      Validate(**oracle, all,
               std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4),
               &correct, &mismatch);

  MetricSink metrics;
  MetricSink diag;
  std::vector<double> latency[kOpCount];
  std::size_t good = 0;  // correct main-mix responses
  std::size_t next = warmup.samples.size();
  for (int probe = 0; probe < 2; ++probe) {
    for (const Sample& sample : measured[probe].samples) {
      if (!correct[next++]) continue;
      if (!probe) ++good;
      latency[static_cast<int>(sample.request.op)].push_back(sample.latency_us);
    }
  }
  // Throughput and CPU per request are the main mix's: the probe slices
  // only time the other classes.
  const Window& main_window = measured[0];
  const double completed = static_cast<double>(main_window.samples.size());
  metrics.Set("throughput_rps", static_cast<double>(good) / main_window.wall_s);
  metrics.Set("cpu_us_per_req",
              completed > 0 ? 1e6 * main_window.server_cpu_s / completed : 0.0);
  metrics.Set("serve_rss_mb", hwm_kib / 1024.0);
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const std::string name = OpName(static_cast<Op>(op));
    metrics.Set(name + "_p50_us", Quantile(latency[op], 0.5));
    diag.Set(name + "_p99_us", Quantile(latency[op], 0.99));
    diag.Set(name + "_samples", static_cast<double>(latency[op].size()));
  }
  diag.Set("calibration_ms", calibration_ms);
  diag.Set("measured_requests", completed);
  diag.Set("probe_requests", static_cast<double>(measured[1].samples.size()));
  diag.Set("warmup_requests", static_cast<double>(warmup.samples.size()));

  MetricSink layers;
  if (trace) {
    std::vector<const Sample*> traced_samples;
    std::vector<double> traced_latency[kOpCount];
    const std::size_t traced_begin = next;
    for (std::size_t s = 0; s < traced.samples.size(); ++s) {
      const Sample& sample = traced.samples[s];
      traced_samples.push_back(&sample);
      if (correct[traced_begin + s]) {
        traced_latency[static_cast<int>(sample.request.op)].push_back(
            sample.latency_us);
      }
    }
    std::vector<Span> spans;
    for (std::size_t s = 0; s < traced_samples.size(); ++s) {
      const Sample& sample = *traced_samples[s];
      Span span;
      span.name = std::string("http.") + OpName(sample.request.op);
      span.start_us = sample.start_us;
      span.dur_us = sample.latency_us;
      span.tid = sample.thread;
      span.trace_id = sample.trace_id;
      span.span_id = s + 1;
      span.cost = sample.cost;
      spans.push_back(std::move(span));
    }
    TraceLayers(**oracle, traced_samples, port, metrics_before, seed,
                &layers, &spans);
    // Tracing's price: the median over classes of the change in the
    // class's p50 from the untraced to the traced slices. Per-class p50s
    // are the steadiest timings the benchmark has; throughput is not.
    std::vector<double> p50_change;
    for (std::size_t op = 0; op < kOpCount; ++op) {
      if (latency[op].empty() || traced_latency[op].empty()) continue;
      p50_change.push_back(Quantile(traced_latency[op], 0.5) /
                               Quantile(latency[op], 0.5) -
                           1.0);
      layers.Set(std::string("trace.p50_change_pct.") + OpName(static_cast<Op>(op)),
                 100.0 * p50_change.back());
    }
    layers.Set("trace.overhead_pct", 100.0 * Quantile(p50_change, 0.5));
    layers.Set("trace.spans", static_cast<double>(spans.size()));
    const std::string spans_path = flags.GetString("spans", "");
    if (!spans_path.empty()) WriteSpans(spans_path, spans);
  }

  tsc::JsonWriter out;
  out.BeginObject();
  out.KV("attempted", static_cast<std::uint64_t>(all.size()));
  out.KV("failed", static_cast<std::uint64_t>(failed));
  out.Key("metrics").RawValue(metrics.ToJson());
  out.Key("diagnostics").RawValue(diag.ToJson());
  out.Key("layers").RawValue(layers.ToJson());
  out.Key("first_mismatch").BeginObject();
  for (const auto& [key, value] : mismatch) out.KV(key, value);
  out.EndObject();
  out.KV("k", static_cast<std::uint64_t>((*oracle)->model().k()));
  out.KV("simd", tsc::kernels::SimdLevelName(tsc::kernels::ActiveSimdLevel()));
  out.EndObject();
  std::cout << out.str() << std::endl;
  return 0;
}

int CmdEvaluate(const tsc::FlagParser& flags) {
  auto model = tsc::SvddModel::LoadFromFile(flags.GetString("model", ""));
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  auto reader = tsc::RowStoreReader::Open(flags.GetString("input", ""));
  if (!reader.ok()) {
    std::cerr << reader.status().ToString() << "\n";
    return 1;
  }
  auto matrix = reader->ReadAll();
  if (!matrix.ok()) {
    std::cerr << matrix.status().ToString() << "\n";
    return 1;
  }
  if (matrix->rows() != model->rows() || matrix->cols() != model->cols()) {
    std::cerr << "model and input shapes differ\n";
    return 1;
  }
  const double rmspe = tsc::Rmspe(*matrix, *model);
  const double cells = static_cast<double>(matrix->rows() * matrix->cols());
  const double raw_bytes = cells * 8.0;
  tsc::JsonWriter out;
  out.BeginObject();
  out.KV("rmspe_pct", 100.0 * rmspe);
  out.KV("space_pct", 100.0 * static_cast<double>(model->CompressedBytes()) /
                          raw_bytes);
  out.KV("k", static_cast<std::uint64_t>(model->k()));
  out.KV("deltas", static_cast<std::uint64_t>(model->delta_count()));
  out.EndObject();
  std::cout << out.str() << std::endl;
  return 0;
}

/// Forwards to a FileRowSource, stamping pass boundaries: a pass starts
/// at Reset() and ends when NextRow first reports end of data. The gaps
/// between passes are the build's in-memory work (eigensolve, k_opt
/// search, outlier merge).
class TimingRowSource final : public tsc::RowSource {
 public:
  explicit TimingRowSource(tsc::RowSource* inner) : inner_(inner) {}

  std::size_t rows() const override { return inner_->rows(); }
  std::size_t cols() const override { return inner_->cols(); }
  bool BenefitsFromReadahead() const override {
    return inner_->BenefitsFromReadahead();
  }
  tsc::StatusOr<bool> NextRow(std::span<double> out) override {
    auto more = inner_->NextRow(out);
    if (more.ok() && !*more && !ended_) {
      ended_ = true;
      pass_end_.push_back(Clock::now());
      rss_mb_.push_back(ProcStatusKib("self", "VmRSS") / 1024.0);
    }
    return more;
  }

  const std::vector<Clock::time_point>& pass_start() const { return pass_start_; }
  const std::vector<Clock::time_point>& pass_end() const { return pass_end_; }
  const std::vector<double>& rss_mb() const { return rss_mb_; }

 protected:
  tsc::Status ResetImpl() override {
    pass_start_.push_back(Clock::now());
    ended_ = false;
    return inner_->Reset();
  }

 private:
  tsc::RowSource* inner_;
  bool ended_ = false;
  std::vector<Clock::time_point> pass_start_;
  std::vector<Clock::time_point> pass_end_;
  std::vector<double> rss_mb_;
};

int CmdBuildTrace(const tsc::FlagParser& flags) {
  const std::string input = flags.GetString("input", "");
  MetricSink layers;
  {
    auto reader = tsc::RowStoreReader::Open(input);
    if (!reader.ok()) {
      std::cerr << reader.status().ToString() << "\n";
      return 1;
    }
    tsc::FileRowSource source(std::move(*reader));
    std::vector<double> row(source.cols());
    double checksum = 0.0;
    const Clock::time_point start = Clock::now();
    if (!source.Reset().ok()) return 1;
    while (true) {
      auto more = source.NextRow(row);
      if (!more.ok() || !*more) break;
      checksum += row[0];
    }
    layers.Set("storage.stream_pass_s", SecondsSince(start));
    if (!std::isfinite(checksum)) std::cerr << "non-finite input\n";
  }
  auto reader = tsc::RowStoreReader::Open(input);
  if (!reader.ok()) return 1;
  tsc::FileRowSource file(std::move(*reader));
  TimingRowSource timed(&file);
  tsc::SvddBuildOptions options;
  options.space_percent = flags.GetDouble("space", 5.0);
  options.num_threads = static_cast<std::size_t>(flags.GetInt("threads", 4));
  const Clock::time_point start = Clock::now();
  auto model = tsc::BuildSvddModel(&timed, options);
  const Clock::time_point done = Clock::now();
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  const auto& starts = timed.pass_start();
  const auto& ends = timed.pass_end();
  double between = MicrosBetween(start, starts.empty() ? done : starts[0]);
  for (std::size_t p = 0; p < 3; ++p) {
    const bool have = p < starts.size() && p < ends.size();
    const std::string index = std::to_string(p + 1);
    layers.Set("core.pass" + index + "_s",
               have ? 1e-6 * MicrosBetween(starts[p], ends[p]) : 0.0);
    layers.Set("core.rss_pass" + index + "_end_mb",
               p < timed.rss_mb().size() ? timed.rss_mb()[p] : 0.0);
  }
  for (std::size_t p = 0; p < ends.size(); ++p) {
    const Clock::time_point next = p + 1 < starts.size() ? starts[p + 1] : done;
    between += MicrosBetween(ends[p], next);
  }
  layers.Set("core.between_passes_s", 1e-6 * between);
  layers.Set("core.build_passes", static_cast<double>(starts.size()));
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  layers.Set("core.build_peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::cout << "{\"layers\":" << layers.ToJson() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const tsc::FlagParser flags(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "load") return perfbench::CmdLoad(flags);
  if (command == "evaluate") return perfbench::CmdEvaluate(flags);
  if (command == "build-trace") return perfbench::CmdBuildTrace(flags);
  std::cerr << "usage: tsc_perfbench load|evaluate|build-trace [--flags]\n";
  return 2;
}
