#include "core/svd_compressor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// "SVD1" stores U as a matrix of f64 rows, "SVD2" as TSCROWQ1 rows
// (docs/file_formats.md).
constexpr std::uint32_t kSvdModelMagic = 0x53564431;      // "SVD1"
constexpr std::uint32_t kSvdModelMagicCodes = 0x53564432;  // "SVD2"

/// A serialized model up to U's rows: the in-memory parts, and where
/// and how U's rows are stored in the file.
struct StoredModelHead {
  std::size_t bytes_per_value = 8;
  QuantScheme scheme = QuantScheme::kF64;
  std::vector<double> singular_values;
  Matrix v;
  RowImage u;
};

/// Zero bytes that take an SVD2 file to an 8-byte offset before U's rows.
std::uint64_t PaddingBefore(std::uint64_t offset) {
  return (8 - offset % 8) % 8;
}

/// Reads the head of either layout and checks U's rows against it and
/// against the bytes left in the file, before anything is sized from
/// them. Every hostile header is an IoError.
StatusOr<StoredModelHead> ReadModelHead(BinaryReader* reader) {
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, reader->ReadU32());
  if (magic != kSvdModelMagic && magic != kSvdModelMagicCodes) {
    return Status::IoError("not an SVD model");
  }
  StoredModelHead head;
  TSC_ASSIGN_OR_RETURN(const std::uint64_t bytes_per_value, reader->ReadU64());
  head.bytes_per_value = static_cast<std::size_t>(bytes_per_value);
  TSC_ASSIGN_OR_RETURN(const std::uint32_t scheme_raw, reader->ReadU32());
  if (scheme_raw > static_cast<std::uint32_t>(QuantScheme::kI8) ||
      (magic == kSvdModelMagicCodes && scheme_raw == 0)) {
    return Status::IoError("unknown quant scheme in SVD model");
  }
  head.scheme = static_cast<QuantScheme>(scheme_raw);
  TSC_ASSIGN_OR_RETURN(head.singular_values, reader->ReadDoubleVector());
  TSC_ASSIGN_OR_RETURN(head.v, reader->ReadMatrix());
  TSC_ASSIGN_OR_RETURN(head.u.rows, reader->ReadU64());
  TSC_ASSIGN_OR_RETURN(head.u.cols, reader->ReadU64());
  const std::size_t k = head.singular_values.size();
  if (head.u.cols != k || head.v.cols() != k) {
    return Status::IoError("inconsistent SVD model dims");
  }
  if (magic == kSvdModelMagicCodes) {
    head.u.scheme = head.scheme;
    std::uint8_t pad[8] = {};
    TSC_RETURN_IF_ERROR(reader->ReadBytes(
        pad, static_cast<std::size_t>(PaddingBefore(reader->position()))));
    if (std::any_of(pad, pad + 8, [](std::uint8_t b) { return b != 0; })) {
      return Status::IoError("corrupt U section padding");
    }
  }
  head.u.offset = reader->position();
  if (head.u.rows > 0 && k == 0) {
    return Status::IoError("SVD model has rows but no components");
  }
  // k <= remaining / 8 (the vector above), so the stride cannot overflow.
  if (head.u.rows > reader->remaining() / QuantRowStride(head.u.scheme, k)) {
    return Status::IoError("U section runs past the end of the file");
  }
  return head;
}

/// Streams U's rows through `reader` (a buffered stream), calling
/// fn(i, row) with each row as stored.
template <typename Fn>
Status ForEachStoredURow(BinaryReader* reader, const RowImage& u, Fn&& fn) {
  const std::size_t stride = QuantRowStride(u.scheme, u.cols);
  // Doubles, so the row (stride is a multiple of 8) is aligned for its
  // meta and f64 coefficients.
  std::vector<double> row(stride / sizeof(double));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(row.data());
  for (std::uint64_t i = 0; i < u.rows; ++i) {
    TSC_RETURN_IF_ERROR(reader->ReadBytes(row.data(), stride));
    fn(static_cast<std::size_t>(i),
       StoredRowView(u.scheme, bytes, static_cast<std::size_t>(u.cols)));
  }
  return Status::Ok();
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

void SvdModel::RebuildBlockSums() {
  block_sums_ = RowBlockSums(u_.rows(), k());
  for (std::size_t i = 0; i < u_.rows(); ++i) {
    block_sums_.AddRow(i, u_.Row(i).data());
  }
  block_sums_.Finish();
}

SvdModel::URowScratch SvdModel::NewURowScratch() const {
  if (!u_on_disk()) return {};
  return {std::vector<std::uint8_t>(u_rows_.file().row_stride_bytes()),
          std::vector<double>(k())};
}

Status SvdModel::ReadStoredURow(std::size_t i, URowScratch* scratch,
                                const double** row) const {
  TSC_ASSIGN_OR_RETURN(
      const QuantRowView view,
      u_rows_.cached ? u_rows_.cached->ReadQuantRow(i, scratch->stored)
                     : u_rows_.reader->ReadQuantRow(i, scratch->stored));
  if (view.scheme == QuantScheme::kF64) {
    *row = static_cast<const double*>(view.data);
    return Status::Ok();
  }
  DecodeQuantRow(view, scratch->decoded);
  *row = scratch->decoded.data();
  return Status::Ok();
}

template <typename Fn>
Status SvdModel::ForEachURow(std::size_t lo, std::size_t hi, Fn&& fn) const {
  URowScratch scratch = NewURowScratch();
  const double* u = nullptr;
  for (std::size_t i = lo; i < hi; ++i) {
    TSC_RETURN_IF_ERROR(URow(i, &scratch, &u));
    fn(u);
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> SvdModel::AccumulateRowMass(
    std::span<const IdRange> runs, std::span<double> out) const {
  TSC_DCHECK(out.size() >= k());
  const std::size_t kk = k();
  return block_sums_.Accumulate(
      runs, out, [&](std::size_t lo, std::size_t hi) {
        return ForEachURow(lo, hi, [&](const double* u) {
          kernels::Axpy(1.0, u, out.data(), kk);
        });
      });
}

Status SvdModel::AppendRowDots(std::span<const IdRange> runs,
                               std::span<const double> weights,
                               std::vector<double>* out) const {
  const std::size_t kk = k();
  for (const IdRange& run : runs) {
    TSC_RETURN_IF_ERROR(ForEachURow(
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
  URowScratch scratch = NewURowScratch();
  const double* u = nullptr;
  TSC_RETURN_IF_ERROR(URow(row, &scratch, &u));
  return kernels::Dot(u, weighted_v_.Row(col).data(), k());
}

double SvdModel::ReconstructCell(std::size_t row, std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  // Eq. 12 with lambda folded into V: dot(u_i, lambda (.) v_j), O(k). In
  // memory a cell can neither fail nor need scratch: the hot path
  // carries no Status.
  if (u_on_disk()) return TryReconstructCell(row, col).value();
  return kernels::Dot(u_.Row(row).data(), weighted_v_.Row(col).data(), k());
}

Status SvdModel::TryReconstructRow(std::size_t row,
                                   std::span<double> out) const {
  if (row >= rows()) return Status::OutOfRange("row out of range");
  if (out.size() != cols()) return Status::InvalidArgument("buffer size");
  URowScratch scratch = NewURowScratch();
  const double* u = nullptr;
  TSC_RETURN_IF_ERROR(URow(row, &scratch, &u));
  // out_j = dot(u_i, weighted_v_j): one dot-batch over the contiguous
  // weighted-V rows.
  kernels::DotBatch(weighted_v_.Row(0).data(), k(), cols(), u, k(),
                    out.data());
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
  URowScratch scratch = NewURowScratch();
  const double* u = nullptr;
  for (std::size_t r = 0; r < row_ids.size(); ++r) {
    TSC_RETURN_IF_ERROR(URow(row_ids[r], &scratch, &u));
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
  u_row_scheme_ = scheme;
  u_meta_.clear();
  if (scheme == QuantScheme::kF64) return;
  // Snap each U row to its decode(encode) image so every in-memory
  // reconstruction sees exactly what the stored row serves, and keep the
  // meta the snap used: Serialize encodes the row under it again.
  // weighted_v_ is untouched — only the left factor changes.
  if (QuantMaxCode(scheme) != 0) u_meta_.resize(u_.rows());
  for (std::size_t i = 0; i < u_.rows(); ++i) {
    const QuantRowMeta meta = SnapQuantRow(scheme, u_.Row(i));
    if (!u_meta_.empty()) u_meta_[i] = meta;
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
  // Rows stored as codes get snapped and keep their meta, like the
  // rows ApplyQuantization snapped.
  if (u_row_scheme_ != QuantScheme::kF64) {
    for (std::size_t i = 0; i < new_u.rows(); ++i) {
      const QuantRowMeta meta = SnapQuantRow(u_row_scheme_, new_u.Row(i));
      if (!u_meta_.empty()) u_meta_.push_back(meta);
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
  const bool codes = u_row_scheme_ != QuantScheme::kF64;
  TSC_RETURN_IF_ERROR(
      writer->WriteU32(codes ? kSvdModelMagicCodes : kSvdModelMagic));
  TSC_RETURN_IF_ERROR(writer->WriteU64(bytes_per_value_));
  TSC_RETURN_IF_ERROR(
      writer->WriteU32(static_cast<std::uint32_t>(quant_scheme_)));
  TSC_RETURN_IF_ERROR(writer->WriteDoubleVector(singular_values_));
  TSC_RETURN_IF_ERROR(writer->WriteMatrix(v_));
  if (!codes) return writer->WriteMatrix(u_);
  TSC_RETURN_IF_ERROR(writer->WriteU64(u_.rows()));
  TSC_RETURN_IF_ERROR(writer->WriteU64(u_.cols()));
  const std::uint8_t pad[8] = {};
  TSC_RETURN_IF_ERROR(writer->WriteBytes(
      pad, static_cast<std::size_t>(PaddingBefore(writer->bytes_written()))));
  // Each row is encoded under the meta its snap used, which gives back
  // the snap's codes; a row that would not decode to the in-memory U bit
  // for bit is an error rather than a silent drift.
  std::vector<std::uint8_t> row(QuantRowStride(u_row_scheme_, k()), 0);
  std::vector<double> decoded(k());
  for (std::size_t i = 0; i < u_.rows(); ++i) {
    const QuantRowMeta meta = u_meta_.empty() ? QuantRowMeta{} : u_meta_[i];
    std::memcpy(row.data(), &meta.scale, 8);
    std::memcpy(row.data() + 8, &meta.offset, 8);
    EncodeQuantRow(u_row_scheme_, u_.Row(i), meta,
                   row.data() + kQuantRowMetaBytes);
    DecodeQuantRow(StoredRowView(u_row_scheme_, row.data(), k()), decoded);
    if (std::memcmp(decoded.data(), u_.Row(i).data(),
                    k() * sizeof(double)) != 0) {
      return Status::Internal("a U row does not re-encode to its values");
    }
    TSC_RETURN_IF_ERROR(writer->WriteBytes(row.data(), row.size()));
  }
  return Status::Ok();
}

StatusOr<SvdModel> SvdModel::Deserialize(BinaryReader* reader,
                                         const URowOpener& open_u_rows) {
  TSC_ASSIGN_OR_RETURN(StoredModelHead head, ReadModelHead(reader));
  const auto rows = static_cast<std::size_t>(head.u.rows);
  SvdModel model;
  model.singular_values_ = std::move(head.singular_values);
  model.v_ = std::move(head.v);
  model.bytes_per_value_ = head.bytes_per_value;
  model.quant_scheme_ = head.scheme;
  model.u_row_scheme_ = head.u.scheme;
  model.RebuildWeightedV();
  if (open_u_rows) {
    TSC_ASSIGN_OR_RETURN(model.u_rows_, open_u_rows(head.u));
  } else {
    model.u_ = Matrix(rows, model.k());
    if (QuantMaxCode(head.u.scheme) != 0) model.u_meta_.resize(rows);
  }
  // One pass over U's rows, in row order, decodes them (into u_ in
  // memory) and adds them into the block sums: the arithmetic of
  // RebuildBlockSums over the rows either mode serves.
  model.block_sums_ = RowBlockSums(rows, model.k());
  std::vector<double> decoded(open_u_rows ? model.k() : 0);
  TSC_RETURN_IF_ERROR(ForEachStoredURow(
      reader, head.u, [&](std::size_t i, const QuantRowView& row) {
        const std::span<double> u =
            open_u_rows ? std::span<double>(decoded) : model.u_.Row(i);
        DecodeQuantRow(row, u);
        if (!model.u_meta_.empty()) model.u_meta_[i] = {row.scale, row.offset};
        model.block_sums_.AddRow(i, u.data());
      }));
  model.block_sums_.Finish();
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
