#ifndef TSC_PERFBENCH_REQUESTS_H_
#define TSC_PERFBENCH_REQUESTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "query/executor.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// The six request classes both serving workloads send. Each workload
/// gives them its own shapes and weights (see README.md).
enum class Op : int { kCell = 0, kRow, kRegion, kAvg, kMax, kGroupBy };
inline constexpr std::size_t kOpCount = 6;
const char* OpName(Op op);

/// Which of a workload's two mixes a generator deals. kMain is the
/// workload's own traffic (the classes it is named for, at the shares of
/// its design); kProbe carries the other three classes, one copy each, in
/// slices of their own, so their latencies are not set by whichever main
/// request happens to run beside them.
enum class Mix { kMain, kProbe };

/// One wire request plus what the in-process oracle needs to answer it.
struct Request {
  Op op = Op::kCell;
  std::string target;  ///< path + query string sent to the server
  std::size_t row = 0;  ///< kCell
  std::size_t col = 0;  ///< kCell
  std::string sql;      ///< kRow, kGroupBy
  std::map<std::string, std::string> params;  ///< kRegion, kAvg, kMax
};

/// One client's draw state: its Rng and a deck holding each class as
/// many times as its weight. The deck is reshuffled when used up, so
/// every deck's worth of requests follows the mix exactly and the share
/// of heavy requests cannot drift between runs.
struct ClientStream {
  explicit ClientStream(std::uint64_t seed)
      : rng(seed), first_panel(rng.UniformUint64(1u << 20)) {}
  tsc::Rng rng;
  std::vector<Op> deck;
  std::size_t next = 0;
  /// Dashboard panels: a seeded starting panel, then the count polled so
  /// far per class.
  std::size_t first_panel;
  std::array<std::size_t, kOpCount> polled{};
};

/// Request stream of one workload's mix. The shared state (Zipf CDF, row
/// permutation, dashboard panel pool) is fixed by the workload and
/// immutable after construction; each client thread draws from its own
/// seeded ClientStream.
class RequestGenerator {
 public:
  /// `workload` is "disk_point" or "mem_dashboard".
  static tsc::StatusOr<RequestGenerator> Create(const std::string& workload,
                                                Mix mix, std::size_t rows,
                                                std::size_t cols);

  Request Next(ClientStream* stream) const;

 private:
  RequestGenerator() = default;
  Request MakeCell(tsc::Rng* rng) const;
  Request MakeRow(tsc::Rng* rng) const;
  /// A data request over `height` rows x `width` cols into `points`
  /// buckets; rows start at a Zipf-skewed row when `skewed`.
  Request MakeData(Op op, const char* group, std::size_t height,
                   std::size_t width, std::size_t points, bool skewed,
                   tsc::Rng* rng) const;
  Request MakeGroupBy(std::size_t height, bool skewed, tsc::Rng* rng) const;
  std::size_t SkewedRow(tsc::Rng* rng) const;
  std::size_t RangeStart(std::size_t height, bool skewed, tsc::Rng* rng) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool dashboard_ = false;
  std::array<int, kOpCount> weights_{};  ///< copies per deck
  std::vector<double> zipf_cdf_;        ///< Zipf(1.0) over row ranks
  std::vector<std::size_t> row_perm_;  ///< rank -> row
  /// Dashboard panels: a fixed set re-polled in turn, so the heavy
  /// classes repeat the way dashboard refreshes do.
  std::vector<Request> panels_[kOpCount];
};

/// Computes, in process, the exact body the server must return for a
/// request: the same executor configuration the server builds over the
/// same model file (disk layout with the same cache size, or the
/// in-memory model with the rollup hierarchy); cells come from the
/// in-memory model's ReconstructCell.
class Oracle {
 public:
  /// `cache_blocks` > 0 mirrors `tsctool serve --cache-blocks`: the
  /// model is exported to `scratch_prefix`.{u,sidecar} and opened
  /// behind a BlockCache of that size.
  static tsc::StatusOr<std::unique_ptr<Oracle>> Open(
      const std::string& model_path, std::size_t cache_blocks,
      const std::string& scratch_prefix);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// The expected 200 body, or the error that prevented computing it.
  /// For SQL requests it is the JSON answer without its timing field.
  tsc::StatusOr<std::string> Expected(const Request& request) const;

  /// The part of a server body that Expected() must match byte for byte:
  /// the body itself, or for SQL requests the body without `"exec_us"`.
  static std::string Comparable(const Request& request, std::string body);

  const tsc::SvddModel& model() const { return model_; }
  const tsc::QueryExecutor& executor() const { return *executor_; }
  /// The disk store (disk workloads only).
  tsc::DiskBackedStore* disk_store() { return disk_ ? &*disk_ : nullptr; }

 private:
  explicit Oracle(tsc::SvddModel model) : model_(std::move(model)) {}

  tsc::SvddModel model_;
  std::string u_path_;
  std::string sidecar_path_;
  std::optional<tsc::DiskBackedStore> disk_;
  std::optional<tsc::DiskBackedStoreView> disk_view_;
  std::optional<tsc::QueryExecutor> executor_;
};

}  // namespace perfbench

#endif  // TSC_PERFBENCH_REQUESTS_H_
