#include "core/svdd_compressor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/parallel_build.h"
#include "core/randomized_build.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "linalg/symmetric_eigen.h"
#include "util/bounded_heap.h"
#include "util/kahan.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsc {
namespace {

constexpr std::uint32_t kSvddModelMagic = 0x53564444;  // "SVDD"

/// Heap key for pass 2: squared error with the cell id as tie-break, a
/// strict total order. The global "top gamma_k cells" set is therefore
/// unique, which is what makes the sharded heaps + merge deterministic:
/// however the shards split the stream, sorting the union under this
/// order and truncating recovers exactly that set.
struct CellErr {
  double err2;
  std::uint64_t cell;  ///< row-major cell key; unique per cell

  bool operator<(const CellErr& other) const {
    if (err2 != other.err2) return err2 < other.err2;
    return cell > other.cell;  // equal errors: the earlier cell ranks higher
  }
};

/// A Bloom pass followed by a delta miss is a false positive of the
/// filter; the measured count backs EstimatedFalsePositiveRate().
void CountBloomFalsePositive() {
  static obs::Counter& false_positives =
      obs::MetricRegistry::Default().GetCounter("bloom.false_positives");
  false_positives.Increment();
}

/// Lock-free monotonic max for the shared pass-2 pruning threshold.
void UpdateMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Evenly spaced candidate cut-offs in [1, k_max], always including both
/// endpoints. With cap == 0 every k is a candidate (the paper's loop).
std::vector<std::size_t> ChooseCandidates(std::size_t k_max,
                                          std::size_t cap) {
  std::vector<std::size_t> ks;
  if (k_max == 0) return ks;
  if (cap == 0 || cap >= k_max) {
    ks.resize(k_max);
    for (std::size_t i = 0; i < k_max; ++i) ks[i] = i + 1;
    return ks;
  }
  cap = std::max<std::size_t>(cap, 2);
  ks.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(cap - 1);
    std::size_t k = 1 + static_cast<std::size_t>(
                            t * static_cast<double>(k_max - 1) + 0.5);
    if (ks.empty() || ks.back() < k) ks.push_back(k);
  }
  if (ks.back() != k_max) ks.push_back(k_max);
  return ks;
}

}  // namespace

SvddModel::SvddModel(SvdModel svd, DeltaTable deltas,
                     std::optional<BloomFilter> bloom)
    : svd_(std::move(svd)),
      deltas_(std::move(deltas)),
      bloom_(std::move(bloom)) {}

double SvddModel::ReconstructCell(std::size_t row, std::size_t col) const {
  const double base = svd_.ReconstructCell(row, col);
  const std::uint64_t key = DeltaTable::CellKey(row, col, cols());
  if (bloom_.has_value() && !bloom_->MightContain(key)) return base;
  const std::optional<double> delta = deltas_.Get(key);
  if (!delta.has_value()) {
    if (bloom_.has_value()) CountBloomFalsePositive();
    return base;
  }
  return base + *delta;
}

void SvddModel::ReconstructRow(std::size_t row, std::span<double> out) const {
  svd_.ReconstructRow(row, out);
  for (std::size_t j = 0; j < cols(); ++j) {
    const std::uint64_t key = DeltaTable::CellKey(row, j, cols());
    if (bloom_.has_value() && !bloom_->MightContain(key)) continue;
    const std::optional<double> delta = deltas_.Get(key);
    if (delta.has_value()) {
      out[j] += *delta;
    } else if (bloom_.has_value()) {
      CountBloomFalsePositive();
    }
  }
}

void SvddModel::ReconstructCells(std::span<const CellRef> cells,
                                 std::span<double> out) const {
  svd_.ReconstructCells(cells, out);
  if (deltas_.empty()) return;
  // Large batches fold the delta table in by iterating it once instead of
  // probing per cell: O(B + D) beats B bloom probes + hash lookups once
  // the batch is a reasonable fraction of the table.
  if (cells.size() >= deltas_.size() / 4) {
    // Multimap, not map: a batch may name the same cell twice, and every
    // occurrence must see its delta (the per-cell probe path below does).
    std::unordered_multimap<std::uint64_t, std::size_t> index;
    index.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      index.emplace(DeltaTable::CellKey(cells[i].row, cells[i].col, cols()),
                    i);
    }
    deltas_.ForEach([&](std::uint64_t key, double delta) {
      const auto [begin, end] = index.equal_range(key);
      for (auto it = begin; it != end; ++it) out[it->second] += delta;
    });
    return;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t key =
        DeltaTable::CellKey(cells[i].row, cells[i].col, cols());
    if (bloom_.has_value() && !bloom_->MightContain(key)) continue;
    const std::optional<double> delta = deltas_.Get(key);
    if (delta.has_value()) {
      out[i] += *delta;
    } else if (bloom_.has_value()) {
      CountBloomFalsePositive();
    }
  }
}

namespace {

// Flat per-model view: the fused loops below run the single-store
// probe path verbatim, with the model resolved by one data-dependent
// load (no branch to mispredict, no virtual call). The view table is
// a handful of cache lines for realistic shard counts.
struct FusedModelView {
  const double* u;           // row-major, rows x k
  const double* weighted_v;  // row-major, cols x k
  std::size_t k;
  std::size_t cols;
  const BloomFilter* bloom;  // nullptr when the model has none
  const DeltaTable* deltas;
};

std::vector<FusedModelView>& FusedViews(
    std::span<const SvddModel* const> models) {
  thread_local std::vector<FusedModelView> views;
  views.resize(models.size());
  for (std::size_t s = 0; s < models.size(); ++s) {
    const SvddModel& m = *models[s];
    views[s] = FusedModelView{m.svd().u().Row(0).data(),
                              m.svd().weighted_v().Row(0).data(),
                              m.svd().k(),
                              m.cols(),
                              m.has_bloom_filter() ? &m.bloom_filter() : nullptr,
                              &m.deltas()};
  }
  return views;
}

inline double FusedReconstructCell(const FusedModelView& v, std::size_t row,
                                   std::size_t col) {
  double value =
      kernels::Dot(v.u + row * v.k, v.weighted_v + col * v.k, v.k);
  const std::uint64_t key = DeltaTable::CellKey(row, col, v.cols);
  if (v.bloom == nullptr || v.bloom->MightContain(key)) {
    const std::optional<double> delta = v.deltas->Get(key);
    if (delta.has_value()) {
      value += *delta;
    } else if (v.bloom != nullptr) {
      CountBloomFalsePositive();
    }
  }
  return value;
}

}  // namespace

void SvddModel::ReconstructCellsMulti(
    std::span<const SvddModel* const> models,
    std::span<const std::uint32_t> owner, std::span<const CellRef> cells,
    std::span<double> out) {
  const std::vector<FusedModelView>& views = FusedViews(models);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i] = FusedReconstructCell(views[owner[i]], cells[i].row,
                                  cells[i].col);
  }
}

std::uint64_t SvddModel::ReconstructCellsRange(
    std::span<const SvddModel* const> models,
    std::span<const std::size_t> range_begin,
    std::span<const CellRef> cells, std::span<double> out) {
  const std::vector<FusedModelView>& views = FusedViews(models);
  const std::size_t* rb = range_begin.data();
  const std::size_t shard_count = models.size();
  std::uint64_t hit = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t row = cells[i].row;
    // Branchless owner scan: random rows mispredict a binary search,
    // and at a few nanoseconds per cell that is the whole budget.
    std::size_t s = 0;
    for (std::size_t t = 1; t < shard_count; ++t) {
      s += static_cast<std::size_t>(row >= rb[t]);
    }
    hit |= std::uint64_t{1} << (s & 63);
    out[i] = FusedReconstructCell(views[s], row - rb[s], cells[i].col);
  }
  return hit;
}

void SvddModel::ReconstructRegion(std::span<const std::size_t> row_ids,
                                  std::span<const std::size_t> col_ids,
                                  Matrix* out) const {
  svd_.ReconstructRegion(row_ids, col_ids, out);
  if (deltas_.empty() || row_ids.empty() || col_ids.empty()) return;
  const std::uint64_t region_cells =
      static_cast<std::uint64_t>(row_ids.size()) * col_ids.size();
  if (region_cells >= deltas_.size() / 4) {
    // One sweep of the table with row/col membership maps; every region
    // cell's delta is found without a single bloom probe. Multimaps so a
    // region listing the same row or column twice patches every copy,
    // matching the per-cell probe path below.
    std::unordered_multimap<std::size_t, std::size_t> row_index;
    row_index.reserve(row_ids.size());
    for (std::size_t r = 0; r < row_ids.size(); ++r) {
      row_index.emplace(row_ids[r], r);
    }
    std::unordered_multimap<std::size_t, std::size_t> col_index;
    col_index.reserve(col_ids.size());
    for (std::size_t c = 0; c < col_ids.size(); ++c) {
      col_index.emplace(col_ids[c], c);
    }
    const std::size_t m = cols();
    deltas_.ForEach([&](std::uint64_t key, double delta) {
      const auto [rbegin, rend] =
          row_index.equal_range(static_cast<std::size_t>(key / m));
      if (rbegin == rend) return;
      const auto [cbegin, cend] =
          col_index.equal_range(static_cast<std::size_t>(key % m));
      for (auto rit = rbegin; rit != rend; ++rit) {
        for (auto cit = cbegin; cit != cend; ++cit) {
          (*out)(rit->second, cit->second) += delta;
        }
      }
    });
    return;
  }
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    const std::span<double> dst = out->Row(r);
    for (std::size_t c = 0; c < col_ids.size(); ++c) {
      const std::uint64_t key =
          DeltaTable::CellKey(row_ids[r], col_ids[c], cols());
      if (bloom_.has_value() && !bloom_->MightContain(key)) continue;
      const std::optional<double> delta = deltas_.Get(key);
      if (delta.has_value()) {
        dst[c] += *delta;
      } else if (bloom_.has_value()) {
        CountBloomFalsePositive();
      }
    }
  }
}

std::uint64_t SvddModel::CompressedBytes() const {
  return svd_.CompressedBytes() + deltas_.PackedBytes();
}

SvdModel::FoldInStats SvddModel::FoldInRows(const Matrix& new_rows) {
  SvdModel::FoldInStats stats = svd_.FoldInRows(new_rows);
  // After the U matrix has grown: listeners sized to the old row span
  // (the aggregate hierarchy) mark themselves stale and rebuild on
  // their next read.
  delta_listeners_.NotifyRowsAppended(svd_.rows());
  return stats;
}

Status SvddModel::PatchCell(std::size_t row, std::size_t col,
                            double exact_value) {
  if (row >= rows() || col >= cols()) {
    return Status::OutOfRange("cell out of range");
  }
  const std::uint64_t key = DeltaTable::CellKey(row, col, cols());
  const std::optional<double> old_delta = deltas_.Get(key);
  const double new_delta = exact_value - svd_.ReconstructCell(row, col);
  deltas_.Put(key, new_delta);
  // The Bloom filter must admit the new key or lookups would skip it.
  if (bloom_.has_value()) bloom_->Add(key);
  delta_listeners_.Notify(row, col, old_delta.value_or(0.0),
                          old_delta.has_value(), new_delta);
  return Status::Ok();
}

Status SvddModel::Serialize(BinaryWriter* writer) const {
  TSC_RETURN_IF_ERROR(writer->WriteU32(kSvddModelMagic));
  TSC_RETURN_IF_ERROR(svd_.Serialize(writer));
  TSC_RETURN_IF_ERROR(deltas_.Serialize(writer));
  TSC_RETURN_IF_ERROR(writer->WriteU32(bloom_.has_value() ? 1 : 0));
  if (bloom_.has_value()) TSC_RETURN_IF_ERROR(bloom_->Serialize(writer));
  return Status::Ok();
}

StatusOr<SvddModel> SvddModel::Deserialize(BinaryReader* reader) {
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, reader->ReadU32());
  if (magic != kSvddModelMagic) return Status::IoError("not an SVDD model");
  TSC_ASSIGN_OR_RETURN(SvdModel svd, SvdModel::Deserialize(reader));
  TSC_ASSIGN_OR_RETURN(DeltaTable deltas, DeltaTable::Deserialize(reader));
  TSC_ASSIGN_OR_RETURN(const std::uint32_t has_bloom, reader->ReadU32());
  std::optional<BloomFilter> bloom;
  if (has_bloom != 0) {
    TSC_ASSIGN_OR_RETURN(BloomFilter filter, BloomFilter::Deserialize(reader));
    bloom = std::move(filter);
  }
  return SvddModel(std::move(svd), std::move(deltas), std::move(bloom));
}

Status SvddModel::SaveToFile(const std::string& path) const {
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(Serialize(&writer));
  return writer.FinishWithChecksum();
}

StatusOr<SvddModel> SvddModel::LoadFromFile(const std::string& path) {
  TSC_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(path));
  TSC_ASSIGN_OR_RETURN(SvddModel model, Deserialize(&reader));
  TSC_RETURN_IF_ERROR(reader.VerifyChecksum());
  return model;
}

StatusOr<SvddModel> BuildSvddModel(RowSource* source,
                                   const SvddBuildOptions& options,
                                   SvddBuildDiagnostics* diagnostics) {
  if (source->rows() == 0 || source->cols() == 0) {
    return Status::InvalidArgument("empty source");
  }
  const std::size_t n = source->rows();
  const std::size_t m = source->cols();
  SpaceBudget budget = SpaceBudget::FromPercent(
      n, m, options.space_percent, options.bytes_per_value);
  // Charge U at its quantized stride: a smaller U raises k_max and frees
  // delta allowance, which is the whole point of quantizing the store.
  budget.u_quant = options.quant;
  const std::uint64_t total_cells =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  // Phase spans: emplace ends the previous phase and opens the next, so
  // the trace shows the three passes back to back on the build thread,
  // with the per-shard worker spans nested under each.
  std::optional<obs::TraceSpan> phase;

  // ---------------------------------------------------------------------
  // Pass 1: subspace estimate -> k_max and gamma_k. Two engines produce
  // the same (eigenvalues, eigenvectors) contract: the exact path
  // accumulates the full M x M column similarity and eigendecomposes it;
  // the randomized path streams a Gaussian sketch (O(M*(k+p)) resident,
  // independent of N) and Rayleigh-Ritz-solves the small problem.
  // Everything downstream — k_opt search, pass-2 outlier queues, pass-3
  // U emission, quantization, deltas, Bloom — is engine-agnostic.
  // ---------------------------------------------------------------------
  const std::size_t passes_before = source->passes_started();
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // m x r, column j pairs with eigenvalues[j]
  std::size_t sketch_cols = 0;
  if (options.engine == SvddBuildEngine::kRandomized) {
    phase.emplace("svdd.sketch");
    RandomizedSketchOptions sketch;
    sketch.target_rank = options.forced_k > 0 ? options.forced_k
                                              : std::min(budget.MaxK(), m);
    sketch.oversample = options.sketch_oversample;
    sketch.power_iterations = options.power_iterations;
    sketch.seed = options.sketch_seed;
    sketch.solver = options.solver;
    const RandomizedSvdBuilder builder(sketch);
    TSC_ASSIGN_OR_RETURN(SketchedEigenBasis basis,
                         builder.EstimateSubspace(source, pool.get()));
    eigenvalues = std::move(basis.eigenvalues);
    eigenvectors = std::move(basis.eigenvectors);
    sketch_cols = basis.sketch_cols;
  } else {
    phase.emplace("svdd.pass1");
    TSC_ASSIGN_OR_RETURN(Matrix c,
                         AccumulateColumnSimilarity(source, pool.get()));
    phase.emplace("svdd.eigen");
    TSC_ASSIGN_OR_RETURN(EigenDecomposition eigen,
                         SymmetricEigen(c, options.solver));
    eigenvalues = std::move(eigen.eigenvalues);
    eigenvectors = std::move(eigen.eigenvectors);
  }

  const double lambda_max =
      eigenvalues.empty() ? 0.0 : std::max(0.0, eigenvalues[0]);
  const std::size_t rank_limit = std::min(m, eigenvalues.size());
  std::size_t numerical_rank = 0;
  for (std::size_t j = 0; j < rank_limit; ++j) {
    if (eigenvalues[j] > kSvdRelativeTolerance * lambda_max &&
        eigenvalues[j] > 0.0) {
      ++numerical_rank;
    } else {
      break;
    }
  }
  if (numerical_rank == 0) {
    return Status::InvalidArgument("matrix is numerically zero");
  }

  std::size_t k_max = std::min(budget.MaxK(), numerical_rank);
  if (options.forced_k > 0) {
    if (options.forced_k > numerical_rank) {
      return Status::InvalidArgument("forced_k exceeds numerical rank");
    }
    k_max = options.forced_k;
  }
  if (k_max == 0) {
    return Status::ResourceExhausted(
        "space budget cannot fit a single principal component");
  }

  std::vector<std::size_t> candidate_ks =
      options.forced_k > 0 ? std::vector<std::size_t>{options.forced_k}
                           : ChooseCandidates(k_max, options.max_candidates);
  const std::size_t num_candidates = candidate_ks.size();

  std::vector<std::uint64_t> gamma(num_candidates);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    gamma[ci] = std::min(budget.DeltaCount(candidate_ks[ci], options.delta_bytes),
                         total_cells);
  }

  // Eigenvectors for all k_max components, used in passes 2 and 3.
  std::vector<double> singular_values(k_max);
  Matrix v(m, k_max);
  for (std::size_t j = 0; j < k_max; ++j) {
    singular_values[j] = std::sqrt(eigenvalues[j]);
    for (std::size_t i = 0; i < m; ++i) v(i, j) = eigenvectors(i, j);
  }

  // ---------------------------------------------------------------------
  // Pass 2: per-candidate bounded queues of the worst cells + epsilon_k.
  //
  // Rows are dealt to kBuildShards shards (row % kBuildShards). Each shard
  // keeps its own top-gamma_k selector per candidate k and its own
  // compensated SSE partial, so no locks are taken on the hot path. A
  // shared atomic threshold per candidate — the largest top-gamma_k
  // cutoff any shard has published — lets shards skip cells that
  // provably cannot make the global top gamma_k, keeping total retained
  // entries near gamma_k instead of kBuildShards * gamma_k.
  // ---------------------------------------------------------------------
  using OutlierHeap = BoundedTopSelector<CellErr, double>;  // value = err
  // The per-candidate SSE is split over four interleaved Kahan lanes
  // (cell j feeds lane j % 4, folded in lane order afterwards): a single
  // compensated accumulator is a 4-add serial dependency chain per cell
  // and was the throughput floor of the whole pass. Lane assignment
  // depends only on j, so the sum stays bit-deterministic at any thread
  // count.
  constexpr std::size_t kSseLanes = 4;
  using LaneSum = std::array<KahanSum, kSseLanes>;
  struct Pass2Shard {
    std::vector<OutlierHeap> queues;      // one per candidate k
    std::vector<LaneSum> sse;             // one per candidate k
    std::vector<double> projection;       // scratch: x_i . v_p
    std::vector<double> ucoef;            // scratch: quantized-U preview
    std::vector<double> recon;            // scratch: running recon of a row
    std::vector<double> err2;             // scratch: squared errors of a row
    std::vector<std::size_t> publish_at;  // next early-fractile watermark
  };
  std::vector<Pass2Shard> shards(kBuildShards);
  for (Pass2Shard& shard : shards) {
    shard.queues.reserve(num_candidates);
    for (std::size_t ci = 0; ci < num_candidates; ++ci) {
      shard.queues.emplace_back(static_cast<std::size_t>(gamma[ci]));
    }
    shard.sse.resize(num_candidates);
    shard.projection.resize(k_max);
    shard.ucoef.resize(k_max);
    shard.recon.resize(m);
    shard.err2.resize(m);
  }
  // Component-major copy of V so the hot loops below run on contiguous
  // rows (kernels::Dot / kernels::Axpy) instead of striding column-wise
  // through the m x k_max layout.
  Matrix vt(k_max, m);
  for (std::size_t p = 0; p < k_max; ++p) {
    for (std::size_t l = 0; l < m; ++l) vt(p, l) = v(l, p);
  }
  // Pruning bounds. A zero-allowance candidate retains nothing, so every
  // offer to it can be skipped outright.
  std::vector<std::atomic<double>> thresholds(num_candidates);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    thresholds[ci].store(gamma[ci] == 0
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity(),
                         std::memory_order_relaxed);
  }
  // Collective bound (distributed top-k fractile combining). A shard's
  // own cutoff is its LOCAL gamma_k-th largest error, which with evenly
  // dealt rows approximates the global (kBuildShards * gamma_k)-th
  // largest — a loose bound that lets ~kBuildShards times too many cells
  // through. Instead each shard also publishes its ceil(gamma_k /
  // kBuildShards)-th largest retained error: every shard has at least
  // that many cells at or above its publication, so at least
  // kBuildShards * ceil(gamma_k / kBuildShards) >= gamma_k cells sit at
  // or above the MINIMUM publication across shards. That minimum is
  // therefore a valid lower bound on the global gamma_k-th largest error
  // (any cell strictly below it is outranked by >= gamma_k cells), and
  // it tracks the true global cutoff closely. Publications are
  // per-shard slots (single writer each) and only ever increase, so
  // stale reads just weaken the bound — pruning stays conservative and
  // the final exact merge keeps the result timing-independent.
  std::vector<std::size_t> fractile_rank(num_candidates);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    fractile_rank[ci] =
        static_cast<std::size_t>((gamma[ci] + kBuildShards - 1) /
                                 kBuildShards);
  }
  std::vector<std::array<std::atomic<double>, kBuildShards>> fractile(
      num_candidates);
  for (auto& per_shard : fractile) {
    for (auto& slot : per_shard) {
      slot.store(-std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
    }
  }
  // A shard can publish its fractile as soon as it RETAINS
  // fractile_rank entries — long before its first compaction (which
  // needs gamma_k + slack offers). Publishing early, at doubling
  // buffer-size watermarks, activates the collective bound after
  // roughly gamma_k total offers instead of kBuildShards * gamma_k,
  // which is where most of the unpruned startup offers went.
  for (Pass2Shard& shard : shards) shard.publish_at = fractile_rank;

  phase.emplace("svdd.pass2");
  TSC_RETURN_IF_ERROR(ForEachRowChunk(
      source, [&](std::size_t base, std::size_t count, const Matrix& rows) {
        if (base + count > n) {
          return Status::Internal("source grew between passes");
        }
        ParallelFor(pool.get(), kBuildShards, [&](std::size_t si) {
          obs::TraceSpan shard_span("svdd.pass2.shard", si);
          Pass2Shard& shard = shards[si];
          for (std::size_t r = FirstShardRow(si, base); r < count;
               r += kBuildShards) {
            const std::size_t i = base + r;
            const std::span<const double> row = rows.Row(r);
            for (std::size_t p = 0; p < k_max; ++p) {
              shard.projection[p] =
                  kernels::Dot(row.data(), vt.Row(p).data(), m);
            }
            if (options.quant != QuantScheme::kF64) {
              // Preview the quantized U row this sequence will get
              // (u_ip = projection_p / lambda_p, snapped at k_max) and
              // fold it back, so the per-cell errors below — and hence
              // the outlier queues — rank cells by their combined
              // truncation + quantization damage.
              for (std::size_t p = 0; p < k_max; ++p) {
                shard.ucoef[p] = shard.projection[p] / singular_values[p];
              }
              SnapQuantRow(options.quant, shard.ucoef);
              for (std::size_t p = 0; p < k_max; ++p) {
                shard.projection[p] = shard.ucoef[p] * singular_values[p];
              }
            }
            // recon_k = sum_{p<k} projection_p * v_jp, accumulated one
            // component slab at a time so each candidate k reads the
            // whole-row partial sum exactly once, vectorized.
            std::fill(shard.recon.begin(), shard.recon.end(), 0.0);
            std::size_t p = 0;
            for (std::size_t ci = 0; ci < num_candidates; ++ci) {
              for (; p < candidate_ks[ci]; ++p) {
                kernels::Axpy(shard.projection[p], vt.Row(p).data(),
                              shard.recon.data(), m);
              }
              // Branch-free squared errors + lane-compensated SSE first
              // (the compiler vectorizes this whole loop: 4 Kahan lanes
              // = one AVX register each), then a separate scan applies
              // the pruning bound — on pruned rows it is a pure compare
              // sweep over an L1-resident scratch array.
              LaneSum& sse = shard.sse[ci];
              for (std::size_t j = 0; j < m; ++j) {
                const double err = row[j] - shard.recon[j];
                const double e2 = err * err;
                shard.err2[j] = e2;
                sse[j % kSseLanes].Add(e2);
              }
              // One threshold read per row: the bound only tightens, so
              // a slightly stale value just means a few extra appends.
              const double bound =
                  thresholds[ci].load(std::memory_order_relaxed);
              bool tightened = false;
              for (std::size_t j = 0; j < m; ++j) {
                // Strictly below the published bound means at least
                // gamma_k cells already beat this one — skip. (Ties must
                // be offered: the tie-break may rank them above the
                // bound's owner.)
                if (!(shard.err2[j] < bound)) {
                  tightened |= shard.queues[ci].Offer(
                      CellErr{shard.err2[j], DeltaTable::CellKey(i, j, m)},
                      row[j] - shard.recon[j]);
                }
              }
              OutlierHeap& queue = shard.queues[ci];
              if (tightened) {
                UpdateMax(thresholds[ci], queue.Cutoff().err2);
              }
              if (fractile_rank[ci] > 0 &&
                  (tightened || queue.size() >= shard.publish_at[ci]) &&
                  queue.size() >= fractile_rank[ci]) {
                // Publish this shard's fractile, then fold the collective
                // minimum back into the shared threshold (a no-op until
                // every shard has published at least once). Valid at any
                // buffer size >= the rank: the buffer always holds a
                // superset of the shard's true top entries, all of them
                // genuinely seen.
                fractile[ci][si].store(
                    queue.NthLargestKey(fractile_rank[ci]).err2,
                    std::memory_order_relaxed);
                shard.publish_at[ci] = queue.size() * 2;
                double collective = std::numeric_limits<double>::infinity();
                for (const auto& slot : fractile[ci]) {
                  collective = std::min(
                      collective, slot.load(std::memory_order_relaxed));
                }
                UpdateMax(thresholds[ci], collective);
              }
            }
          }
        });
        return Status::Ok();
      }));

  // Deterministic reduction: fold shard SSE partials in shard order, then
  // merge each candidate's shard queues under the CellErr total order and
  // truncate to the allowance — exactly the unique global top-gamma_k set,
  // however the stream was split.
  phase.emplace("svdd.pass2.merge");
  std::vector<double> sse(num_candidates, 0.0);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    KahanSum total;
    for (const Pass2Shard& shard : shards) {
      for (const KahanSum& lane : shard.sse[ci]) total.Merge(lane);
    }
    sse[ci] = total.value();
  }
  std::vector<std::vector<OutlierHeap::Entry>> merged(num_candidates);
  ParallelFor(pool.get(), num_candidates, [&](std::size_t ci) {
    const auto desc = [](const OutlierHeap::Entry& a,
                         const OutlierHeap::Entry& b) {
      return b.key < a.key;  // descending under the total order
    };
    std::vector<OutlierHeap::Entry> all;
    std::size_t union_size = 0;
    for (const Pass2Shard& shard : shards) {
      union_size += shard.queues[ci].entries().size();
    }
    all.reserve(union_size);
    for (const Pass2Shard& shard : shards) {
      const auto& entries = shard.queues[ci].entries();
      all.insert(all.end(), entries.begin(), entries.end());
    }
    // Select the exact top gamma_k in O(union), then canonically order
    // just the survivors: the descending sort makes the retained vector
    // — and hence the compensated credit sum below — a pure function of
    // the retained SET, which is what keeps the model bit-identical
    // across thread counts. Sorting the whole union first cost more
    // than the rest of the merge combined.
    if (all.size() > gamma[ci]) {
      auto nth = all.begin() + static_cast<std::ptrdiff_t>(gamma[ci]);
      std::nth_element(all.begin(), nth, all.end(), desc);
      all.resize(static_cast<std::size_t>(gamma[ci]));
    }
    std::sort(all.begin(), all.end(), desc);
    merged[ci] = std::move(all);
  });

  // epsilon_k: SSE left after the affordable outliers are stored exactly.
  // Compensated on both sides; clamped at zero, where the true residual
  // lands when the allowance covers every cell.
  std::size_t best_ci = 0;
  double best_eps = std::numeric_limits<double>::infinity();
  std::vector<double> residual(num_candidates, 0.0);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    KahanSum credit;
    for (const OutlierHeap::Entry& entry : merged[ci]) {
      credit.Add(entry.key.err2);
    }
    const double eps = std::max(0.0, sse[ci] - credit.value());
    residual[ci] = eps;
    if (eps < best_eps) {
      best_eps = eps;
      best_ci = ci;
    }
  }
  const std::size_t k_opt = candidate_ks[best_ci];

  // ---------------------------------------------------------------------
  // Pass 3: emit U at k_opt (Figure 5, using Eq. 11); row-parallel.
  // ---------------------------------------------------------------------
  phase.emplace("svdd.pass3");
  TSC_ASSIGN_OR_RETURN(
      Matrix u, EmitUMatrix(source, v, singular_values, k_opt, pool.get()));

  // Assemble: truncate the factor matrices to k_opt and fill the table.
  phase.emplace("svdd.assemble");
  std::vector<double> sv_opt(singular_values.begin(),
                             singular_values.begin() +
                                 static_cast<std::ptrdiff_t>(k_opt));
  Matrix v_opt(m, k_opt);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k_opt; ++p) v_opt(i, p) = v(i, p);
  }
  SvdModel svd(std::move(u), std::move(sv_opt), std::move(v_opt));
  svd.set_bytes_per_value(options.bytes_per_value);

  std::vector<OutlierHeap::Entry> entries = std::move(merged[best_ci]);
  DeltaTable deltas(entries.size());
  deltas.set_entry_bytes(options.delta_bytes);
  if (options.bytes_per_value == 4 || options.quant != QuantScheme::kF64) {
    // Quantize the factors first, then re-derive each stored delta
    // against the QUANTIZED reconstruction so outlier cells still
    // round-trip (up to float rounding of the delta itself).
    for (auto& entry : entries) {
      const std::size_t i = static_cast<std::size_t>(entry.key.cell / m);
      const std::size_t j = static_cast<std::size_t>(entry.key.cell % m);
      entry.value += svd.ReconstructCell(i, j);  // = original x_ij
    }
    if (options.bytes_per_value == 4) svd.QuantizeToFloat();
    svd.ApplyQuantization(options.quant);  // snaps U rows at k_opt
    for (auto& entry : entries) {
      const std::size_t i = static_cast<std::size_t>(entry.key.cell / m);
      const std::size_t j = static_cast<std::size_t>(entry.key.cell % m);
      entry.value -= svd.ReconstructCell(i, j);
    }
  }
  for (const auto& entry : entries) {
    deltas.Put(entry.key.cell, entry.value);
  }
  if (options.bytes_per_value == 4) deltas.QuantizeValuesToFloat();
  std::optional<BloomFilter> bloom;
  if (options.build_bloom_filter && !entries.empty()) {
    BloomFilter filter(entries.size(), options.bloom_bits_per_entry);
    for (const auto& entry : entries) filter.Add(entry.key.cell);
    bloom = std::move(filter);
  }

  phase.reset();

  const bool randomized = options.engine == SvddBuildEngine::kRandomized;
  // Every pass Reset()s the source exactly once, so streamed rows are
  // passes * n regardless of engine (exact: 3; randomized: 3 + 1 sketch
  // + power_iterations).
  const std::uint64_t rows_streamed =
      static_cast<std::uint64_t>(source->passes_started() - passes_before) *
      static_cast<std::uint64_t>(n);
  obs::MetricRegistry::Default().GetGauge("build.k_opt").Set(
      static_cast<double>(k_opt));
  obs::MetricRegistry::Default().GetGauge("build.delta_count").Set(
      static_cast<double>(deltas.size()));
  obs::MetricRegistry::Default().GetGauge("build.engine").Set(
      randomized ? 1.0 : 0.0);
  obs::MetricRegistry::Default().GetGauge("build.sketch_cols").Set(
      static_cast<double>(sketch_cols));
  obs::MetricRegistry::Default().GetGauge("build.power_iters").Set(
      randomized ? static_cast<double>(options.power_iterations) : 0.0);
  obs::MetricRegistry::Default()
      .GetCounter("build.rows_streamed")
      .Add(rows_streamed);

  if (diagnostics != nullptr) {
    diagnostics->k_max = k_max;
    diagnostics->k_opt = k_opt;
    diagnostics->delta_count = deltas.size();
    diagnostics->candidate_ks = std::move(candidate_ks);
    diagnostics->candidate_sse = std::move(sse);
    diagnostics->candidate_residual_sse = std::move(residual);
    diagnostics->candidate_delta_counts = std::move(gamma);
    diagnostics->engine = randomized ? "randomized" : "exact";
    diagnostics->sketch_cols = sketch_cols;
    diagnostics->power_iterations =
        randomized ? options.power_iterations : 0;
    diagnostics->rows_streamed = rows_streamed;
  }
  return SvddModel(std::move(svd), std::move(deltas), std::move(bloom));
}

}  // namespace tsc
