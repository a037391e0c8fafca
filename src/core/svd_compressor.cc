#include "core/svd_compressor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/parallel_build.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsc {
namespace {

constexpr std::uint32_t kSvdModelMagic = 0x53564431;  // "SVD1"

/// The row of `view` as doubles: in place for f64, else decoded into
/// `decoded` (view.n long).
const double* AsDoubles(const QuantRowView& view, std::span<double> decoded) {
  if (view.scheme == QuantScheme::kF64) {
    return static_cast<const double*>(view.data);
  }
  DecodeQuantRow(view, decoded);
  return decoded.data();
}

/// Eq. 12 with lambda folded into V: dot(u_i, lambda (.) v_j), O(k). An
/// f64 row calls kernels::Dot directly (QuantDot's own f64 case); a
/// stored quantized row dequantizes in registers as it accumulates.
double CellDot(const QuantRowView& urow, const double* weighted_v_col) {
  if (urow.scheme == QuantScheme::kF64) {
    return kernels::Dot(static_cast<const double*>(urow.data), weighted_v_col,
                        urow.n);
  }
  return QuantDot(urow, weighted_v_col);
}

}  // namespace

SvdModel::SvdModel(Matrix u, std::vector<double> singular_values, Matrix v)
    : u_(std::move(u)),
      singular_values_(std::move(singular_values)),
      v_(std::move(v)) {
  TSC_CHECK_EQ(u_.cols(), singular_values_.size());
  TSC_CHECK_EQ(v_.cols(), singular_values_.size());
  RebuildWeightedV();
  RebuildBlockSums();
}

void SvdModel::RebuildWeightedV() {
  weighted_v_ = Matrix(v_.rows(), v_.cols());
  for (std::size_t j = 0; j < v_.rows(); ++j) {
    for (std::size_t m = 0; m < v_.cols(); ++m) {
      weighted_v_(j, m) = singular_values_[m] * v_(j, m);
    }
  }
}

StatusOr<SvdModel> SvdModel::OverRowStore(
    URowStore u_rows, std::vector<double> singular_values, Matrix v) {
  TSC_CHECK(u_rows.reader || u_rows.cached);
  const RowStoreReader& file = u_rows.file();
  TSC_CHECK_EQ(file.cols(), singular_values.size());
  TSC_CHECK_EQ(v.cols(), singular_values.size());
  SvdModel model;
  model.singular_values_ = std::move(singular_values);
  model.v_ = std::move(v);
  model.quant_scheme_ = file.scheme();
  model.RebuildWeightedV();
  // U's block sums from the decoded rows, added in row order: the
  // in-memory arithmetic over the rows the file serves.
  model.block_sums_ = RowBlockSums(file.rows(), model.k());
  TSC_RETURN_IF_ERROR(file.ForEachRowUncounted(
      [&](std::size_t i, std::span<const double> row) {
        model.block_sums_.AddRow(i, row.data());
      }));
  model.block_sums_.Finish();
  model.u_rows_ = std::move(u_rows);
  return model;
}

void SvdModel::RebuildBlockSums() {
  block_sums_ = RowBlockSums(u_.rows(), k());
  for (std::size_t i = 0; i < u_.rows(); ++i) {
    block_sums_.AddRow(i, u_.Row(i).data());
  }
  block_sums_.Finish();
}

std::vector<std::uint8_t> SvdModel::URowScratch() const {
  return std::vector<std::uint8_t>(
      u_on_disk() ? u_rows_.file().row_stride_bytes() : 0);
}

template <typename Fn>
Status SvdModel::ForEachDecodedURow(std::size_t lo, std::size_t hi,
                                    Fn&& fn) const {
  std::vector<std::uint8_t> scratch = URowScratch();
  std::vector<double> decoded(u_on_disk() ? k() : 0);
  QuantRowView urow;
  for (std::size_t i = lo; i < hi; ++i) {
    TSC_RETURN_IF_ERROR(URow(i, scratch, &urow));
    fn(AsDoubles(urow, decoded));
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> SvdModel::AccumulateRowMass(
    std::span<const IdRange> runs, std::span<double> out) const {
  TSC_DCHECK(out.size() >= k());
  const std::size_t kk = k();
  return block_sums_.Accumulate(
      runs, out, [&](std::size_t lo, std::size_t hi) {
        return ForEachDecodedURow(lo, hi, [&](const double* u) {
          kernels::Axpy(1.0, u, out.data(), kk);
        });
      });
}

Status SvdModel::AppendRowDots(std::span<const IdRange> runs,
                               std::span<const double> weights,
                               std::vector<double>* out) const {
  const std::size_t kk = k();
  for (const IdRange& run : runs) {
    TSC_RETURN_IF_ERROR(ForEachDecodedURow(
        run.lo, run.hi + 1, [&](const double* u) {
          out->push_back(kernels::Dot(u, weights.data(), kk));
        }));
  }
  return Status::Ok();
}

StatusOr<double> SvdModel::TryReconstructCell(std::size_t row,
                                              std::size_t col) const {
  if (row >= rows() || col >= cols()) {
    return Status::OutOfRange("cell out of range");
  }
  if (!u_on_disk()) return ReconstructCell(row, col);
  std::vector<std::uint8_t> scratch = URowScratch();
  QuantRowView urow;
  TSC_RETURN_IF_ERROR(URow(row, scratch, &urow));
  return CellDot(urow, weighted_v_.Row(col).data());
}

double SvdModel::ReconstructCell(std::size_t row, std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  // In memory a cell can neither fail nor need scratch: the hot path
  // carries no Status.
  if (u_on_disk()) return TryReconstructCell(row, col).value();
  return CellDot(MemoryURow(row), weighted_v_.Row(col).data());
}

Status SvdModel::TryReconstructRow(std::size_t row,
                                   std::span<double> out) const {
  if (row >= rows()) return Status::OutOfRange("row out of range");
  if (out.size() != cols()) return Status::InvalidArgument("buffer size");
  std::vector<std::uint8_t> scratch = URowScratch();
  QuantRowView urow;
  TSC_RETURN_IF_ERROR(URow(row, scratch, &urow));
  // out_j = dot(u_i, weighted_v_j): one fused dot-batch over the
  // contiguous weighted-V rows.
  QuantDotBatch(urow, weighted_v_.Row(0).data(), k(), cols(), out.data());
  return Status::Ok();
}

void SvdModel::ReconstructRow(std::size_t row, std::span<double> out) const {
  TSC_CHECK_OK(TryReconstructRow(row, out));
}

Status SvdModel::ReconstructRegion(std::span<const std::size_t> row_ids,
                                   std::span<const std::size_t> col_ids,
                                   Matrix* out) const {
  if (out->rows() != row_ids.size() || out->cols() != col_ids.size()) {
    *out = Matrix(row_ids.size(), col_ids.size());
  }
  if (row_ids.empty() || col_ids.empty()) return Status::Ok();
  TSC_DCHECK(std::all_of(row_ids.begin(), row_ids.end(),
                         [&](std::size_t r) { return r < rows(); }));
  TSC_DCHECK(std::all_of(col_ids.begin(), col_ids.end(),
                         [&](std::size_t c) { return c < cols(); }));
  const std::size_t kk = k();
  // Gather the selected factor rows into dense blocks (O((R + C) * k),
  // noise next to the O(R * C * k) product; a stored quantized row
  // decodes once here, amortized over the whole column block), then run
  // the blocked U * (Lambda V^T) micro-kernel on contiguous memory.
  Matrix a(row_ids.size(), kk);
  std::vector<std::uint8_t> scratch = URowScratch();
  std::vector<double> decoded(u_on_disk() ? kk : 0);
  QuantRowView urow;
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    TSC_RETURN_IF_ERROR(URow(row_ids[r], scratch, &urow));
    const double* u = AsDoubles(urow, decoded);
    std::copy(u, u + kk, a.Row(r).begin());
  }
  Matrix b(col_ids.size(), kk);
  for (std::size_t c = 0; c < col_ids.size(); ++c) {
    const std::span<const double> src = weighted_v_.Row(col_ids[c]);
    std::copy(src.begin(), src.end(), b.Row(c).begin());
  }
  kernels::GemmNT(a.Row(0).data(), row_ids.size(), kk, b.Row(0).data(),
                  col_ids.size(), kk, kk, out->Row(0).data(),
                  col_ids.size());
  return Status::Ok();
}

std::uint64_t SvdModel::CompressedBytes() const {
  // Section 3.4: N*k for U, k eigenvalues, k*M for V, at b bytes each —
  // except that a quantized U is charged at its true on-disk row stride
  // (16-byte meta + padded codes), matching what the row store writes.
  const std::uint64_t u_bytes =
      quant_scheme_ == QuantScheme::kF64
          ? static_cast<std::uint64_t>(rows()) * k() * bytes_per_value_
          : static_cast<std::uint64_t>(rows()) *
                QuantRowStride(quant_scheme_, k());
  const std::uint64_t resident =
      k() + static_cast<std::uint64_t>(k()) * v_.rows();
  return u_bytes + resident * bytes_per_value_;
}

std::vector<double> SvdModel::ProjectRow(std::size_t row) const {
  TSC_CHECK_LT(row, rows());
  std::vector<double> coords(k());
  const std::span<const double> urow = u().Row(row);
  for (std::size_t m = 0; m < k(); ++m) {
    coords[m] = urow[m] * singular_values_[m];
  }
  return coords;
}

void SvdModel::QuantizeToFloat() {
  TSC_CHECK(!u_on_disk()) << "QuantizeToFloat needs U in memory";
  for (double& v : u_.data()) v = static_cast<float>(v);
  for (double& v : v_.data()) v = static_cast<float>(v);
  for (double& v : singular_values_) v = static_cast<float>(v);
  bytes_per_value_ = 4;
  // The derived caches must reflect the quantized factors (the products
  // themselves stay double precision).
  RebuildWeightedV();
  RebuildBlockSums();
}

void SvdModel::ApplyQuantization(QuantScheme scheme) {
  TSC_CHECK(!u_on_disk()) << "ApplyQuantization needs U in memory";
  quant_scheme_ = scheme;
  if (scheme == QuantScheme::kF64) return;
  // Snap each U row to its decode(encode) image so every in-memory
  // reconstruction sees exactly what the quantized row store serves.
  // weighted_v_ is untouched — only the left factor changes.
  for (std::size_t i = 0; i < u_.rows(); ++i) {
    SnapQuantRow(scheme, u_.Row(i));
  }
  RebuildBlockSums();
}

SvdModel::FoldInStats SvdModel::FoldInRows(const Matrix& new_rows) {
  TSC_CHECK(!u_on_disk()) << "FoldInRows needs U in memory";
  TSC_CHECK_EQ(new_rows.cols(), cols());
  FoldInStats stats;
  stats.rows_added = new_rows.rows();
  Matrix new_u(new_rows.rows(), k());
  std::vector<double> proj(k());
  for (std::size_t i = 0; i < new_rows.rows(); ++i) {
    const std::span<const double> row = new_rows.Row(i);
    for (const double v : row) stats.energy_total += v * v;
    // proj = V^T x, accumulated over the contiguous rows of V so the
    // inner update vectorizes: proj += x_j * v_j.
    std::fill(proj.begin(), proj.end(), 0.0);
    for (std::size_t j = 0; j < cols(); ++j) {
      kernels::Axpy(row[j], v_.Row(j).data(), proj.data(), k());
    }
    for (std::size_t p = 0; p < k(); ++p) {
      new_u(i, p) = proj[p] / singular_values_[p];
      // The projection coefficient is proj = u * lambda; its squared
      // magnitude is the energy this component captures (V columns are
      // orthonormal).
      stats.energy_captured += proj[p] * proj[p];
    }
  }
  u_.AppendRows(new_u);
  RebuildBlockSums();
  return stats;
}

Status SvdModel::Serialize(BinaryWriter* writer) const {
  if (u_on_disk()) {
    return Status::FailedPrecondition(
        "a model over the U row store cannot be serialized");
  }
  TSC_RETURN_IF_ERROR(writer->WriteU32(kSvdModelMagic));
  TSC_RETURN_IF_ERROR(writer->WriteU64(bytes_per_value_));
  TSC_RETURN_IF_ERROR(
      writer->WriteU32(static_cast<std::uint32_t>(quant_scheme_)));
  TSC_RETURN_IF_ERROR(writer->WriteDoubleVector(singular_values_));
  TSC_RETURN_IF_ERROR(writer->WriteMatrix(v_));
  return writer->WriteMatrix(u_);
}

StatusOr<SvdModel> SvdModel::Deserialize(BinaryReader* reader) {
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, reader->ReadU32());
  if (magic != kSvdModelMagic) return Status::IoError("not an SVD model");
  TSC_ASSIGN_OR_RETURN(const std::uint64_t bytes_per_value, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(const std::uint32_t scheme_raw, reader->ReadU32());
  if (scheme_raw > static_cast<std::uint32_t>(QuantScheme::kI8)) {
    return Status::IoError("unknown quant scheme in SVD model");
  }
  TSC_ASSIGN_OR_RETURN(std::vector<double> sv, reader->ReadDoubleVector());
  TSC_ASSIGN_OR_RETURN(Matrix v, reader->ReadMatrix());
  TSC_ASSIGN_OR_RETURN(Matrix u, reader->ReadMatrix());
  if (u.cols() != sv.size() || v.cols() != sv.size()) {
    return Status::IoError("inconsistent SVD model dims");
  }
  SvdModel model(std::move(u), std::move(sv), std::move(v));
  model.set_bytes_per_value(static_cast<std::size_t>(bytes_per_value));
  // The rows of U were snapped at build time; recording the scheme is
  // enough for the loaded model to export the same quantized store.
  model.quant_scheme_ = static_cast<QuantScheme>(scheme_raw);
  return model;
}

Status SvdModel::SaveToFile(const std::string& path) const {
  return WriteFileAtomically(
      path, [this](BinaryWriter* writer) { return Serialize(writer); });
}

StatusOr<SvdModel> SvdModel::LoadFromFile(const std::string& path) {
  TSC_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(path));
  TSC_ASSIGN_OR_RETURN(SvdModel model, Deserialize(&reader));
  TSC_RETURN_IF_ERROR(reader.VerifyChecksum());
  return model;
}

StatusOr<Matrix> AccumulateColumnSimilarity(RowSource* source,
                                            ThreadPool* pool) {
  const std::size_t m = source->cols();
  // One partial C per shard; shard s accumulates rows i with
  // i % kBuildShards == s in stream order, independent of the chunking.
  std::vector<Matrix> partial(kBuildShards, Matrix(m, m));
  {
    obs::TraceSpan accumulate_span("similarity.accumulate");
    TSC_RETURN_IF_ERROR(ForEachRowChunk(
        source, [&](std::size_t base, std::size_t count, const Matrix& rows) {
          ParallelFor(pool, kBuildShards, [&](std::size_t shard) {
            obs::TraceSpan shard_span("similarity.shard", shard);
            Matrix& c = partial[shard];
            for (std::size_t r = FirstShardRow(shard, base); r < count;
                 r += kBuildShards) {
              const std::span<const double> row = rows.Row(r);
              // Upper triangle only; mirrored below. The Figure 2 kernel:
              // each row of C gains xj * row[j..m), a vectorized axpy.
              for (std::size_t j = 0; j < m; ++j) {
                const double xj = row[j];
                if (xj == 0.0) continue;
                kernels::Axpy(xj, row.data() + j, &c(j, j), m - j);
              }
            }
          });
          return Status::Ok();
        }));
  }
  // Ordered reduction: each element sums shard 0 + shard 1 + ... in
  // shard order, which fixes the arithmetic regardless of which threads
  // ran which shards. The elements are independent, so the element range
  // splits across the pool without touching the per-element order.
  obs::TraceSpan reduce_span("similarity.reduce");
  Matrix c = std::move(partial[0]);
  {
    std::vector<double>& dst = c.data();
    const std::size_t total = dst.size();
    const std::size_t pieces =
        pool != nullptr ? std::min<std::size_t>(kBuildShards,
                                                std::max<std::size_t>(1, total / 4096))
                        : 1;
    const std::size_t per_piece = (total + pieces - 1) / pieces;
    ParallelFor(pool, pieces, [&](std::size_t p) {
      const std::size_t begin = p * per_piece;
      const std::size_t end = std::min(begin + per_piece, total);
      for (std::size_t s = 1; s < kBuildShards; ++s) {
        const std::vector<double>& src = partial[s].data();
        for (std::size_t idx = begin; idx < end; ++idx) dst[idx] += src[idx];
      }
    });
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t l = j + 1; l < m; ++l) c(l, j) = c(j, l);
  }
  return c;
}

void EmitURow(std::span<const double> row, const Matrix& v,
              const std::vector<double>& singular_values,
              std::span<double> proj, std::span<double> urow) {
  const std::size_t k = urow.size();
  // proj = V^T x over the contiguous rows of V (vectorized axpy),
  // summing each component in the same l order as the scalar dot it
  // replaces.
  std::fill(proj.begin(), proj.begin() + static_cast<std::ptrdiff_t>(k), 0.0);
  for (std::size_t l = 0; l < row.size(); ++l) {
    kernels::Axpy(row[l], v.Row(l).data(), proj.data(), k);
  }
  for (std::size_t p = 0; p < k; ++p) urow[p] = proj[p] / singular_values[p];
}

StatusOr<Matrix> EmitUMatrix(RowSource* source, const Matrix& v,
                             const std::vector<double>& singular_values,
                             std::size_t k, ThreadPool* pool) {
  TSC_CHECK_LE(k, v.cols());
  TSC_CHECK_LE(k, singular_values.size());
  const std::size_t n = source->rows();
  Matrix u(n, k);
  obs::TraceSpan emit_span("emit_u");
  TSC_RETURN_IF_ERROR(ForEachRowChunk(
      source, [&](std::size_t base, std::size_t count, const Matrix& rows) {
        if (base + count > n) {
          return Status::Internal("source grew between passes");
        }
        // Rows of U are independent and each is written exactly once, so
        // any schedule gives identical bits. Iterating shard-strided (like
        // the other passes) instead of row-per-task keeps the fork/join
        // count fixed and gives each shard a traceable unit of work.
        ParallelFor(pool, kBuildShards, [&](std::size_t shard) {
          obs::TraceSpan shard_span("emit_u.shard", shard);
          std::vector<double> proj(k);
          for (std::size_t r = FirstShardRow(shard, base); r < count;
               r += kBuildShards) {
            EmitURow(rows.Row(r), v, singular_values, proj, u.Row(base + r));
          }
        });
        return Status::Ok();
      }));
  return u;
}

StatusOr<SvdModel> BuildSvdModel(RowSource* source,
                                 const SvdBuildOptions& options) {
  if (source->rows() == 0 || source->cols() == 0) {
    return Status::InvalidArgument("empty source");
  }
  const std::size_t m = source->cols();
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  // Phase spans: emplace ends the previous phase and opens the next, so
  // the trace shows pass1 / eigen / pass2 back to back on this thread.
  std::optional<obs::TraceSpan> phase;
  phase.emplace("svd.pass1");

  // Pass 1: column-to-column similarity, then the in-memory eigenproblem.
  TSC_ASSIGN_OR_RETURN(Matrix c, AccumulateColumnSimilarity(source, pool.get()));
  phase.emplace("svd.eigen");
  TSC_ASSIGN_OR_RETURN(EigenDecomposition eigen,
                       SymmetricEigen(c, options.solver));

  const double lambda_max =
      eigen.eigenvalues.empty() ? 0.0 : std::max(0.0, eigen.eigenvalues[0]);
  std::size_t k = std::min(options.k, m);
  std::size_t effective = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (eigen.eigenvalues[j] > kSvdRelativeTolerance * lambda_max &&
        eigen.eigenvalues[j] > 0.0) {
      ++effective;
    } else {
      break;
    }
  }
  if (effective == 0) {
    return Status::InvalidArgument("matrix is numerically zero");
  }

  std::vector<double> singular_values(effective);
  Matrix v(m, effective);
  for (std::size_t j = 0; j < effective; ++j) {
    singular_values[j] = std::sqrt(eigen.eigenvalues[j]);
    for (std::size_t i = 0; i < m; ++i) v(i, j) = eigen.eigenvectors(i, j);
  }

  // Pass 2: U = X V Lambda^-1, one row of U per row of X (Figure 3).
  phase.emplace("svd.pass2");
  TSC_ASSIGN_OR_RETURN(
      Matrix u, EmitUMatrix(source, v, singular_values, effective, pool.get()));
  phase.reset();
  SvdModel model(std::move(u), std::move(singular_values), std::move(v));
  if (options.bytes_per_value == 4) {
    model.QuantizeToFloat();
  } else {
    model.set_bytes_per_value(options.bytes_per_value);
  }
  return model;
}

}  // namespace tsc
