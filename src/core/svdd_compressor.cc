#include "core/svdd_compressor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/error_histogram.h"
#include "core/parallel_build.h"
#include "core/randomized_build.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "linalg/symmetric_eigen.h"
#include "util/kahan.h"
#include "util/logging.h"
#include "util/memory_usage.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tsc {
namespace {

constexpr std::uint32_t kSvddModelMagic = 0x53564444;  // "SVDD"

/// Outlier key: squared error with the cell id as tie-break, a strict
/// total order. The "top gamma_k cells" set is therefore unique, which is
/// what makes the outlier selection deterministic: however the shards
/// split the stream, sorting their union under this order and truncating
/// recovers exactly that set.
struct CellErr {
  double err2;
  std::uint64_t cell;  ///< row-major cell key; unique per cell

  bool operator<(const CellErr& other) const {
    if (err2 != other.err2) return err2 < other.err2;
    return cell > other.cell;  // equal errors: the earlier cell ranks higher
  }
};

struct Outlier {
  CellErr key;
  /// x_ij minus its reconstruction: the delta to store. A build whose
  /// factors are quantized after pass 3 keeps x_ij itself instead and
  /// derives the delta from the quantized model.
  double value;
};

struct OutlierDescending {
  bool operator()(const Outlier& a, const Outlier& b) const {
    return b.key < a.key;
  }
};

/// Moves every shard's outliers into found[0], in shard order, and keeps
/// the `count` largest under the total order (in no particular order).
void KeepLargest(std::vector<std::vector<Outlier>>* found,
                 std::uint64_t count) {
  std::size_t total = 0;
  for (const std::vector<Outlier>& part : *found) total += part.size();
  std::vector<Outlier> kept;
  kept.reserve(total);
  for (std::vector<Outlier>& part : *found) {
    kept.insert(kept.end(), part.begin(), part.end());
    part = {};
  }
  if (kept.size() > count) {
    const auto nth = kept.begin() + static_cast<std::ptrdiff_t>(count);
    std::nth_element(kept.begin(), nth, kept.end(), OutlierDescending());
    kept.resize(static_cast<std::size_t>(count));
  }
  (*found)[0] = std::move(kept);
}

// The per-candidate SSE is split over four interleaved Kahan lanes (cell
// j feeds lane j % 4, folded in lane order afterwards): a single
// compensated accumulator is a 4-add serial dependency chain per cell and
// was the throughput floor of pass 2. Lane assignment depends only on j,
// so the sum stays bit-deterministic at any thread count.
constexpr std::size_t kSseLanes = 4;
using LaneSum = std::array<KahanSum, kSseLanes>;

/// Squared cell errors of one row at a rising sequence of ranks. Pass 2
/// bins these errors and pass 3 re-derives them for the candidates it
/// resolves; both run this one routine, so pass 3 sees the bits pass 2
/// counted.
class RowErrors {
 public:
  /// `vt` is V component-major (k_max x m), so the loops below run on
  /// contiguous rows (kernels::Dot / kernels::Axpy).
  RowErrors(const Matrix& vt, const std::vector<double>& singular_values,
            QuantScheme quant)
      : vt_(&vt),
        singular_values_(&singular_values),
        quant_(quant),
        projection_(vt.rows()),
        coeffs_(quant == QuantScheme::kF64 ? 0 : vt.rows()),
        recon_(vt.cols()),
        err2_(vt.cols()) {}

  /// Projects `row` onto the leading k components and restarts the
  /// reconstruction at rank 0. A quantized build keeps the U row this
  /// sequence will get (u_ip = projection_p / lambda_p) and previews its
  /// quantized image at each rank (SnapPrefix), so the errors — and hence
  /// the outliers — rank cells by their combined truncation +
  /// quantization damage.
  void Start(std::span<const double> row, std::size_t k) {
    const std::size_t m = vt_->cols();
    for (std::size_t p = 0; p < k; ++p) {
      projection_[p] = kernels::Dot(row.data(), vt_->Row(p).data(), m);
    }
    if (quant_ != QuantScheme::kF64) {
      const std::vector<double>& sv = *singular_values_;
      for (std::size_t p = 0; p < k; ++p) coeffs_[p] = projection_[p] / sv[p];
    }
    std::fill(recon_.begin(), recon_.end(), 0.0);
    rank_ = 0;
  }

  /// Extends the reconstruction to rank k >= the current rank (recon_k =
  /// sum_{p<k} projection_p * v_p, one component slab at a time) and
  /// fills err2(). With `sse`, also adds each err2 to lane j % 4 of it.
  void Advance(std::span<const double> row, std::size_t k, LaneSum* sse) {
    const std::size_t m = vt_->cols();
    if (quant_ != QuantScheme::kF64) SnapPrefix(k);
    for (; rank_ < k; ++rank_) {
      kernels::Axpy(projection_[rank_], vt_->Row(rank_).data(),
                    recon_.data(), m);
    }
    if (sse != nullptr) {
      LaneSum& lanes = *sse;
      for (std::size_t j = 0; j < m; ++j) {
        const double err = row[j] - recon_[j];
        const double e2 = err * err;
        err2_[j] = e2;
        lanes[j % kSseLanes].Add(e2);
      }
    } else {
      for (std::size_t j = 0; j < m; ++j) {
        const double err = row[j] - recon_[j];
        err2_[j] = err * err;
      }
    }
  }

  std::span<const double> err2() const { return err2_; }
  std::span<const double> recon() const { return recon_; }

 private:
  /// Sets projection_[0..k) to the snapped U prefix u[0..k) times lambda:
  /// ApplyQuantization snaps a row's k_opt coefficients, so the integer
  /// schemes' affine map spans the prefix's min and max. While a longer
  /// prefix leaves both unchanged, the coefficients already folded into
  /// recon_ keep their snapped values and only the new ones are snapped;
  /// otherwise the reconstruction restarts at rank 0 under the new map.
  /// Either way recon_ holds the bits of a from-scratch sum in p order.
  void SnapPrefix(std::size_t k) {
    if (rank_ == k) return;
    const std::span<const double> prefix(coeffs_.data(), k);
    if (rank_ == 0) lo_ = hi_ = prefix[0];
    bool grew = false;
    for (std::size_t p = rank_; p < k; ++p) {
      if (prefix[p] < lo_ || prefix[p] > hi_) {
        lo_ = std::min(lo_, prefix[p]);
        hi_ = std::max(hi_, prefix[p]);
        grew = true;
      }
    }
    if (rank_ == 0 || (grew && quant_ != QuantScheme::kF32)) {
      meta_ = ComputeQuantRowMeta(quant_, prefix);
      if (rank_ > 0) {
        std::fill(recon_.begin(), recon_.end(), 0.0);
        rank_ = 0;
      }
    }
    const std::vector<double>& sv = *singular_values_;
    for (std::size_t p = rank_; p < k; ++p) {
      projection_[p] = SnapQuantValue(quant_, meta_, prefix[p]) * sv[p];
    }
  }

  const Matrix* vt_;
  const std::vector<double>* singular_values_;
  QuantScheme quant_;
  std::vector<double> projection_;
  std::vector<double> coeffs_;  ///< unsnapped U row (quantized builds)
  std::vector<double> recon_;
  std::vector<double> err2_;
  std::size_t rank_ = 0;
  double lo_ = 0.0;  ///< min and max of coeffs_[0..rank_)
  double hi_ = 0.0;
  QuantRowMeta meta_;  ///< the snap map of the current prefix
};

/// A candidate k whose epsilon_k bracket leaves it a chance to be k_opt;
/// pass 3 emits its U and resolves its epsilon_k exactly.
struct Contender {
  std::size_t ci = 0;  ///< candidate index
  Matrix u;
  /// Per shard: the cells at or above the candidate's cutoff.
  std::vector<std::vector<Outlier>> found;
  /// Per shard: cells collected (before any compaction).
  std::vector<std::uint64_t> offered;
  /// Collect more than twice the allowance? Then compact between chunks.
  bool compact = false;
  double epsilon = 0.0;
};

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

SvddModel::SvddModel(SvdModel svd, DeltaIndex deltas)
    : svd_(std::move(svd)), deltas_(std::move(deltas)) {}

StatusOr<double> SvddModel::TryReconstructCell(std::size_t row,
                                               std::size_t col) const {
  TSC_ASSIGN_OR_RETURN(const double base, svd_.TryReconstructCell(row, col));
  const std::optional<double> delta = deltas()->Find(row, col);
  return delta.has_value() ? base + *delta : base;
}

double SvddModel::ReconstructCell(std::size_t row, std::size_t col) const {
  const double base = svd_.ReconstructCell(row, col);
  const std::optional<double> delta = deltas()->Find(row, col);
  return delta.has_value() ? base + *delta : base;
}

Status SvddModel::TryReconstructRow(std::size_t row,
                                    std::span<double> out) const {
  TSC_RETURN_IF_ERROR(svd_.TryReconstructRow(row, out));
  deltas()->AddToRow(row, out);
  return Status::Ok();
}

void SvddModel::ReconstructRow(std::size_t row, std::span<double> out) const {
  TSC_CHECK_OK(TryReconstructRow(row, out));
}

Status SvddModel::ReconstructRegion(std::span<const std::size_t> row_ids,
                                    std::span<const std::size_t> col_ids,
                                    Matrix* out) const {
  TSC_RETURN_IF_ERROR(svd_.ReconstructRegion(row_ids, col_ids, out));
  deltas()->AddToRegion(row_ids, col_ids, out);
  return Status::Ok();
}

std::uint64_t SvddModel::CompressedBytes() const {
  return svd_.CompressedBytes() + deltas()->PackedBytes();
}

SvdModel::FoldInStats SvddModel::FoldInRows(const Matrix& new_rows) {
  SvdModel::FoldInStats stats = svd_.FoldInRows(new_rows);
  deltas_.Update(
      [this](const DeltaIndex& current) { return current.WithRows(rows()); });
  return stats;
}

Status SvddModel::PatchCell(std::size_t row, std::size_t col,
                            double exact_value) {
  TSC_ASSIGN_OR_RETURN(const double base, svd_.TryReconstructCell(row, col));
  const double delta = exact_value - base;
  if (!std::isfinite(delta)) {
    return Status::InvalidArgument("patch value is not finite");
  }
  deltas_.Update([&](const DeltaIndex& current) {
    return current.WithPatch(row, col, delta);
  });
  return Status::Ok();
}

Status SvddModel::Serialize(BinaryWriter* writer) const {
  TSC_RETURN_IF_ERROR(writer->WriteU32(kSvddModelMagic));
  TSC_RETURN_IF_ERROR(svd_.Serialize(writer));
  return deltas()->Serialize(writer);
}

StatusOr<SvddModel> SvddModel::Deserialize(BinaryReader* reader,
                                           const URowOpener& open_u_rows) {
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, reader->ReadU32());
  if (magic != kSvddModelMagic) return Status::IoError("not an SVDD model");
  TSC_ASSIGN_OR_RETURN(SvdModel svd,
                       SvdModel::Deserialize(reader, open_u_rows));
  TSC_ASSIGN_OR_RETURN(DeltaIndex deltas,
                       DeltaIndex::Deserialize(reader, svd.rows(), svd.cols()));
  return SvddModel(std::move(svd), std::move(deltas));
}

Status SvddModel::SaveToFile(const std::string& path) const {
  return WriteFileAtomically(
      path, [this](BinaryWriter* writer) { return Serialize(writer); });
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
  SpaceBudget budget = SpaceBudget::FromPercent(n, m, options.space_percent);
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
  Timer pass_timer;
  std::array<double, 3> pass_seconds{};
  std::array<double, 3> pass_end_rss_mb{};
  const auto end_pass = [&](std::size_t pass) {
    pass_seconds[pass] = pass_timer.ElapsedSeconds();
    pass_end_rss_mb[pass] = CurrentRssMiB();
    pass_timer.Reset();
  };

  // ---------------------------------------------------------------------
  // Pass 1: subspace estimate -> k_max and gamma_k. Two engines produce
  // the same (eigenvalues, eigenvectors) contract: the exact path
  // accumulates the full M x M column similarity and eigendecomposes it;
  // the randomized path streams a Gaussian sketch (O(M*(k+p)) resident,
  // independent of N) and Rayleigh-Ritz-solves the small problem.
  // Everything downstream — k_opt search, pass-2 error histograms, pass-3
  // U emission, quantization, deltas — is engine-agnostic.
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
  // The error histograms' window sits on the data's energy (the sum of
  // the eigenvalues): no cell's err2 exceeds it, up to the quantized
  // preview's rounding.
  double energy = 0.0;
  for (const double lambda : eigenvalues) energy += std::max(0.0, lambda);
  const std::uint32_t histogram_base = ErrorHistogram::BaseFor(energy);
  end_pass(0);

  // ---------------------------------------------------------------------
  // Pass 2: epsilon_k = SSE_k - (sum of the gamma_k largest err2) for
  // every candidate k, known within a bracket.
  //
  // Rows are dealt to kBuildShards shards (row % kBuildShards). Each shard
  // keeps, per candidate, a compensated SSE partial and an ErrorHistogram
  // of the err2 values at or above the candidate's skip bound; no cell is
  // retained. Between row chunks, with every shard idle, the bound is
  // raised to the lower edge of the bin where the count summed over the
  // shards reaches gamma_k: at least gamma_k counted cells sit at or
  // above it, so no cell below it can make the top gamma_k. The bound
  // depends only on the rows streamed so far, so the histograms — and
  // the model — do not depend on the thread count.
  // ---------------------------------------------------------------------
  Matrix vt(k_max, m);  // component-major V for the row kernels
  for (std::size_t p = 0; p < k_max; ++p) {
    for (std::size_t l = 0; l < m; ++l) vt(p, l) = v(l, p);
  }
  struct Pass2Shard {
    std::vector<ErrorHistogram> histograms;  // one per candidate k
    std::vector<LaneSum> sse;                // one per candidate k
    RowErrors errors;
  };
  std::vector<Pass2Shard> shards;
  shards.reserve(kBuildShards);
  for (std::size_t si = 0; si < kBuildShards; ++si) {
    shards.push_back(Pass2Shard{
        std::vector<ErrorHistogram>(num_candidates,
                                    ErrorHistogram(histogram_base)),
        std::vector<LaneSum>(num_candidates),
        RowErrors(vt, singular_values, options.quant)});
  }
  const auto histograms_of = [&shards](std::size_t ci) {
    std::array<const ErrorHistogram*, kBuildShards> parts;
    for (std::size_t si = 0; si < kBuildShards; ++si) {
      parts[si] = &shards[si].histograms[ci];
    }
    return parts;
  };
  // A zero-allowance candidate counts nothing.
  std::vector<double> bounds(num_candidates, 0.0);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    if (gamma[ci] == 0) bounds[ci] = std::numeric_limits<double>::infinity();
  }

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
            const std::span<const double> row = rows.Row(r);
            shard.errors.Start(row, k_max);
            for (std::size_t ci = 0; ci < num_candidates; ++ci) {
              shard.errors.Advance(row, candidate_ks[ci], &shard.sse[ci]);
              // A separate compare sweep over the L1-resident errors;
              // strictly below the bound means at least gamma_k cells
              // already beat this one.
              const double bound = bounds[ci];
              ErrorHistogram& histogram = shard.histograms[ci];
              for (const double e2 : shard.errors.err2()) {
                if (!(e2 < bound)) histogram.Add(e2);
              }
            }
          }
        });
        ParallelFor(pool.get(), num_candidates, [&](std::size_t ci) {
          if (gamma[ci] == 0) return;
          bounds[ci] = shards[0].histograms[ci].LowerEdge(
              CutoffBin(histograms_of(ci), gamma[ci]));
        });
        return Status::Ok();
      }));

  // Deterministic reduction: fold shard SSE partials in shard order, then
  // bracket each epsilon_k from the histograms merged in shard order.
  phase.emplace("svdd.pass2.bracket");
  std::vector<double> sse(num_candidates, 0.0);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    KahanSum total;
    for (const Pass2Shard& shard : shards) {
      for (const KahanSum& lane : shard.sse[ci]) total.Merge(lane);
    }
    sse[ci] = total.value();
  }
  std::vector<ResidualBracket> brackets(num_candidates);
  ParallelFor(pool.get(), num_candidates, [&](std::size_t ci) {
    brackets[ci] = BracketResidual(histograms_of(ci), gamma[ci], sse[ci]);
  });

  // k_opt is the first candidate with the strictly smallest epsilon_k.
  // Candidate k can still be it unless a bracket proves otherwise: some
  // candidate's upper bound is below k's lower bound, or an earlier
  // candidate's upper bound reaches it (a tie goes to the earlier k).
  // The candidate with the smallest upper bound always stays in.
  double best_hi = std::numeric_limits<double>::infinity();
  for (const ResidualBracket& bracket : brackets) {
    best_hi = std::min(best_hi, bracket.hi);
  }
  std::vector<Contender> contenders;
  double earlier_hi = std::numeric_limits<double>::infinity();
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    const ResidualBracket& bracket = brackets[ci];
    if (bracket.lo <= best_hi && bracket.lo < earlier_hi) {
      Contender contender;
      contender.ci = ci;
      contender.found.resize(kBuildShards);
      contender.offered.assign(kBuildShards, 0);
      // The cells pass 3 offers are known per shard. Reserve for them,
      // unless they outnumber twice the allowance (ties or an underflowed
      // cutoff bin): then pass 3 compacts between chunks instead.
      contender.compact = bracket.at_or_above > 2 * gamma[ci];
      if (gamma[ci] > 0 && !contender.compact) {
        const ErrorHistogram& shape = shards[0].histograms[ci];
        const std::size_t cut = shape.BinOf(bracket.cutoff);
        for (std::size_t si = 0; si < kBuildShards; ++si) {
          contender.found[si].reserve(static_cast<std::size_t>(
              shards[si].histograms[ci].CountAtOrAbove(cut)));
        }
      }
      contenders.push_back(std::move(contender));
    }
    earlier_hi = std::min(earlier_hi, bracket.hi);
  }
  std::uint64_t pass2_state_bytes = 0;
  for (const Pass2Shard& shard : shards) {
    for (const ErrorHistogram& histogram : shard.histograms) {
      pass2_state_bytes += histogram.MemoryBytes();
    }
  }
  shards = {};
  end_pass(1);

  // ---------------------------------------------------------------------
  // Pass 3: emit U (Figure 5, using Eq. 11) for every contender and
  // resolve the contenders' epsilon_k exactly: re-derive each row's err2
  // with pass 2's RowErrors and collect the cells at or above the
  // contender's cutoff, a set pass 2 counted exactly. Usually one
  // contender remains, and its cells are the only entries kept.
  // ---------------------------------------------------------------------
  phase.emplace("svdd.pass3");
  const bool quantized = options.quant != QuantScheme::kF64;
  std::size_t max_contender_k = 0;
  bool collect = false;
  for (Contender& c : contenders) {
    c.u = Matrix(n, candidate_ks[c.ci]);
    max_contender_k = std::max(max_contender_k, candidate_ks[c.ci]);
    collect |= gamma[c.ci] > 0;
  }
  std::vector<RowErrors> pass3_errors(
      kBuildShards, RowErrors(vt, singular_values, options.quant));
  TSC_RETURN_IF_ERROR(ForEachRowChunk(
      source, [&](std::size_t base, std::size_t count, const Matrix& rows) {
        if (base + count > n) {
          return Status::Internal("source grew between passes");
        }
        ParallelFor(pool.get(), kBuildShards, [&](std::size_t si) {
          obs::TraceSpan shard_span("svdd.pass3.shard", si);
          RowErrors& errors = pass3_errors[si];
          std::vector<double> proj(max_contender_k);
          for (std::size_t r = FirstShardRow(si, base); r < count;
               r += kBuildShards) {
            const std::size_t i = base + r;
            const std::span<const double> row = rows.Row(r);
            if (collect) errors.Start(row, max_contender_k);
            for (Contender& c : contenders) {
              EmitURow(row, v, singular_values, proj, c.u.Row(i));
              if (gamma[c.ci] == 0) continue;
              errors.Advance(row, candidate_ks[c.ci], nullptr);
              const double cutoff = brackets[c.ci].cutoff;
              const std::span<const double> err2 = errors.err2();
              const std::span<const double> recon = errors.recon();
              for (std::size_t j = 0; j < m; ++j) {
                if (err2[j] < cutoff) continue;
                c.found[si].push_back(
                    Outlier{CellErr{err2[j], DeltaIndex::CellKey(i, j, m)},
                            quantized ? row[j] : row[j] - recon[j]});
                ++c.offered[si];
              }
            }
          }
        });
        for (Contender& c : contenders) {
          if (!c.compact) continue;
          std::size_t held = 0;
          for (const auto& found : c.found) held += found.size();
          if (held <= 2 * gamma[c.ci]) continue;
          KeepLargest(&c.found, gamma[c.ci]);
        }
        return Status::Ok();
      }));

  phase.emplace("svdd.pass3.resolve");
  ParallelFor(pool.get(), contenders.size(), [&](std::size_t index) {
    Contender& c = contenders[index];
    KeepLargest(&c.found, gamma[c.ci]);
    // The canonical descending order makes the compensated credit — and
    // the model bytes — a pure function of the retained set.
    std::vector<Outlier>& kept = c.found[0];
    std::sort(kept.begin(), kept.end(), OutlierDescending());
    KahanSum credit;
    for (const Outlier& outlier : kept) credit.Add(outlier.key.err2);
    c.epsilon = std::max(0.0, sse[c.ci] - credit.value());
  });
  std::vector<double> residual(num_candidates);
  for (std::size_t ci = 0; ci < num_candidates; ++ci) {
    residual[ci] = brackets[ci].lo;
  }
  std::vector<bool> resolved(num_candidates, false);
  std::size_t winner = 0;
  for (std::size_t index = 0; index < contenders.size(); ++index) {
    const Contender& c = contenders[index];
    std::uint64_t offered = 0;
    for (const std::uint64_t o : c.offered) offered += o;
    if (gamma[c.ci] > 0 && offered != brackets[c.ci].at_or_above) {
      return Status::Internal("pass 3 re-derived errors pass 2 never counted");
    }
    TSC_DCHECK(c.epsilon >= brackets[c.ci].lo &&
               c.epsilon <= brackets[c.ci].hi);
    residual[c.ci] = c.epsilon;
    resolved[c.ci] = true;
    if (c.epsilon < contenders[winner].epsilon) winner = index;
  }
  const std::size_t best_ci = contenders[winner].ci;
  const std::size_t k_opt = candidate_ks[best_ci];
  Matrix u = std::move(contenders[winner].u);
  std::vector<Outlier> entries = std::move(contenders[winner].found[0]);
  const std::size_t resolved_candidates = contenders.size();
  contenders = {};

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

  if (quantized) {
    // Quantize U first, then derive each stored delta from the kept x_ij
    // against the QUANTIZED reconstruction, so outlier cells round-trip.
    svd.ApplyQuantization(options.quant);  // snaps U rows at k_opt
    for (auto& entry : entries) {
      const std::size_t i = static_cast<std::size_t>(entry.key.cell / m);
      const std::size_t j = static_cast<std::size_t>(entry.key.cell % m);
      entry.value -= svd.ReconstructCell(i, j);
    }
  }
  // The index wants its pairs in key order.
  std::vector<DeltaEntry> packed(entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    packed[e] = {entries[e].key.cell, entries[e].value};
  }
  entries = {};
  std::sort(packed.begin(), packed.end(),
            [](const DeltaEntry& a, const DeltaEntry& b) {
              return a.key < b.key;
            });
  TSC_ASSIGN_OR_RETURN(DeltaIndex deltas,
                       DeltaIndex::Build(n, m, packed));
  packed = {};

  phase.reset();
  end_pass(2);

  obs::MetricRegistry::Default().GetGauge("build.resolved_candidates").Set(
      static_cast<double>(resolved_candidates));

  if (diagnostics != nullptr) {
    const bool randomized = options.engine == SvddBuildEngine::kRandomized;
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
    // Every pass Reset()s the source exactly once, so streamed rows are
    // passes * n regardless of engine (exact: 3; randomized: 3 + 1
    // sketch + power_iterations).
    diagnostics->rows_streamed =
        static_cast<std::uint64_t>(source->passes_started() - passes_before) *
        static_cast<std::uint64_t>(n);
    diagnostics->resolved_candidates = resolved_candidates;
    diagnostics->candidate_resolved = std::move(resolved);
    diagnostics->pass2_outlier_state_bytes = pass2_state_bytes;
    diagnostics->pass_seconds = pass_seconds;
    diagnostics->pass_end_rss_mb = pass_end_rss_mb;
    diagnostics->peak_rss_mb = PeakRssMiB();
  }
  return SvddModel(std::move(svd), std::move(deltas));
}

}  // namespace tsc
