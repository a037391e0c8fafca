#include "storage/quant.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "../core/bloom_section_files.h"
#include "core/disk_backed.h"
#include "core/space_budget.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "obs/metrics.h"
#include "storage/cached_row_reader.h"
#include "storage/row_source.h"
#include "storage/row_store.h"
#include "util/rng.h"

namespace tsc {
namespace {

const QuantScheme kAllSchemes[] = {QuantScheme::kF64, QuantScheme::kF32,
                                   QuantScheme::kI16, QuantScheme::kI8};
const QuantScheme kQuantSchemes[] = {QuantScheme::kF32, QuantScheme::kI16,
                                     QuantScheme::kI8};

std::string TempPath(const std::string& name) {
  // Per-process suffix: the quant_scalar_env re-run executes this whole
  // binary while ctest -j runs the discovered tests in their own
  // processes — fixed names would have them truncating each other.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

Matrix RandomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, m);
  for (auto& v : x.data()) v = rng.Gaussian();
  return x;
}

/// One spiky row (a 1e6 outlier among unit noise) and one Zipf-magnitude
/// row — the adversarial shapes for a midrange affine code.
std::vector<std::vector<double>> AdversarialRows(std::size_t m) {
  Rng rng(99);
  std::vector<double> spiky(m);
  for (double& v : spiky) v = rng.Gaussian();
  spiky[m / 2] = 1e6;
  std::vector<double> zipf(m);
  for (std::size_t j = 0; j < m; ++j) {
    zipf[j] = (j % 2 == 0 ? 1.0 : -1.0) * 100.0 / static_cast<double>(j + 1);
  }
  std::vector<double> constant(m, 3.25);
  return {spiky, zipf, constant};
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

double MaxAbs(std::span<const double> row) {
  double m = 0.0;
  for (const double v : row) m = std::max(m, std::abs(v));
  return m;
}

TEST(QuantSchemeTest, NamesParseAndResolve) {
  for (const QuantScheme scheme : kAllSchemes) {
    const auto parsed = ParseQuantScheme(QuantSchemeName(scheme));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, scheme);
  }
  EXPECT_FALSE(ParseQuantScheme("int4").ok());
  EXPECT_FALSE(ParseQuantScheme("garbage").ok());
}

TEST(QuantSchemeTest, RowStrideIsPaddedAndAligned) {
  EXPECT_EQ(QuantRowStride(QuantScheme::kF64, 5), 40u);
  // 5 codes pad up to 8 bytes after the 16-byte meta.
  EXPECT_EQ(QuantRowStride(QuantScheme::kI8, 5), 16u + 8u);
  EXPECT_EQ(QuantRowStride(QuantScheme::kI16, 5), 16u + 16u);
  EXPECT_EQ(QuantRowStride(QuantScheme::kF32, 5), 16u + 24u);
  for (const QuantScheme scheme : kAllSchemes) {
    for (std::size_t cols = 1; cols <= 17; ++cols) {
      EXPECT_EQ(QuantRowStride(scheme, cols) % 8, 0u);
    }
  }
}

TEST(QuantCodecTest, ErrorBoundHoldsOnRandomAndAdversarialRows) {
  const std::size_t m = 64;
  std::vector<std::vector<double>> rows = AdversarialRows(m);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    std::vector<double> row(m);
    for (double& v : row) v = 50.0 * rng.Gaussian();
    rows.push_back(row);
  }
  std::vector<std::uint8_t> codes(m * sizeof(double));
  std::vector<double> decoded(m);
  for (const QuantScheme scheme : kAllSchemes) {
    for (const std::vector<double>& row : rows) {
      const QuantRowMeta meta = ComputeQuantRowMeta(scheme, row);
      EncodeQuantRow(scheme, row, meta, codes.data());
      QuantRowView view;
      view.scheme = scheme;
      view.data = codes.data();
      view.scale = meta.scale;
      view.offset = meta.offset;
      view.n = m;
      DecodeQuantRow(view, decoded);
      double bound = 0.0;
      if (scheme == QuantScheme::kF32) {
        bound = MaxAbs(row) * 1.2e-7;  // one float ulp, with margin
      } else if (scheme != QuantScheme::kF64) {
        bound = QuantStepAbsError(scheme, meta) * (1.0 + 1e-9) +
                1e-12 * MaxAbs(row);
      }
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_LE(std::abs(decoded[j] - row[j]), bound)
            << QuantSchemeName(scheme) << " col " << j;
      }
    }
  }
}

TEST(QuantCodecTest, ConstantRowDecodesExactly) {
  const std::vector<double> row(33, -7.5);
  for (const QuantScheme scheme : {QuantScheme::kI16, QuantScheme::kI8}) {
    const QuantRowMeta meta = ComputeQuantRowMeta(scheme, row);
    EXPECT_EQ(meta.scale, 0.0);
    std::vector<double> snapped = row;
    SnapQuantRow(scheme, snapped);
    for (const double v : snapped) EXPECT_EQ(v, -7.5);
  }
}

TEST(QuantCodecTest, SnappedRowsAreReencodeStable) {
  // Snapping a snapped row again with freshly derived meta comes back to
  // the snapped values, up to the re-derived meta's last bits (the model
  // file keeps each row's own meta, so it is exact there).
  Rng rng(5);
  std::vector<double> row(48);
  for (double& v : row) v = 10.0 * rng.Gaussian();
  for (const QuantScheme scheme : kQuantSchemes) {
    std::vector<double> snapped = row;
    SnapQuantRow(scheme, snapped);
    std::vector<double> again = snapped;
    SnapQuantRow(scheme, again);
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(again[j], snapped[j],
                  1e-12 * (1.0 + std::abs(snapped[j])))
          << QuantSchemeName(scheme);
    }
  }
}

TEST(QuantRowStoreTest, HeaderAndMetaBitExactRoundTrip) {
  const Matrix x = RandomMatrix(9, 13, 21);
  for (const QuantScheme scheme : kQuantSchemes) {
    const std::string path =
        TempPath(std::string("quant_hdr_") + QuantSchemeName(scheme));
    ASSERT_TRUE(WriteMatrixFile(path, x, scheme).ok());
    auto reader = RowStoreReader::Open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader->scheme(), scheme);
    EXPECT_EQ(reader->rows(), x.rows());
    EXPECT_EQ(reader->cols(), x.cols());
    EXPECT_EQ(reader->header_bytes(), 32u);
    EXPECT_EQ(reader->row_stride_bytes(), QuantRowStride(scheme, x.cols()));
    EXPECT_EQ(reader->file_bytes(),
              32u + x.rows() * QuantRowStride(scheme, x.cols()));
    // The per-row scale/offset written by AppendRow must come back with
    // the exact bits ComputeQuantRowMeta produced.
    std::vector<std::uint8_t> scratch(reader->row_stride_bytes());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const auto view = reader->ReadQuantRow(i, scratch);
      ASSERT_TRUE(view.ok());
      const QuantRowMeta meta = ComputeQuantRowMeta(scheme, x.Row(i));
      EXPECT_EQ(view->scale, meta.scale);
      EXPECT_EQ(view->offset, meta.offset);
      EXPECT_EQ(view->n, x.cols());
    }
  }
}

TEST(QuantRowStoreTest, F64FormatIsByteIdenticalToLegacyWriter) {
  const Matrix x = RandomMatrix(6, 7, 3);
  const std::string legacy = TempPath("quant_legacy.mat");
  const std::string explicit_f64 = TempPath("quant_explicit_f64.mat");
  ASSERT_TRUE(WriteMatrixFile(legacy, x).ok());
  ASSERT_TRUE(WriteMatrixFile(explicit_f64, x, QuantScheme::kF64).ok());
  const std::string a = SlurpFile(legacy);
  const std::string b = SlurpFile(explicit_f64);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(QuantRowStoreTest, ReadPathsAgree) {
  // ReadRow, ReadQuantRow and ReadCell return the bits of the bulk
  // ReadAll for every encoding.
  const Matrix x = RandomMatrix(14, 11, 77);
  for (const QuantScheme scheme : kAllSchemes) {
    SCOPED_TRACE(QuantSchemeName(scheme));
    const std::string path =
        TempPath(std::string("quant_parity_") + QuantSchemeName(scheme));
    ASSERT_TRUE(WriteMatrixFile(path, x, scheme).ok());
    auto reader = RowStoreReader::Open(path);
    ASSERT_TRUE(reader.ok());
    const auto ref = reader->ReadAll();
    ASSERT_TRUE(ref.ok());
    std::vector<double> row(x.cols());
    std::vector<std::uint8_t> scratch(reader->row_stride_bytes());
    for (const std::size_t i : {0u, 7u, 13u}) {
      ASSERT_TRUE(reader->ReadRow(i, row).ok());
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_EQ(row[j], (*ref)(i, j));  // bit-identical
      }
      const auto qview = reader->ReadQuantRow(i, scratch);
      ASSERT_TRUE(qview.ok());
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_EQ(DecodeQuantValue(*qview, j), (*ref)(i, j));
      }
      const auto cell = reader->ReadCell(i, 5);
      ASSERT_TRUE(cell.ok());
      EXPECT_EQ(*cell, (*ref)(i, 5));
    }
  }
}

TEST(QuantRowStoreTest, ReadCellUsesCachedPathAndCounts) {
  const Matrix x = RandomMatrix(8, 6, 11);
  for (const QuantScheme scheme : kAllSchemes) {
    const std::string path =
        TempPath(std::string("quant_cell_") + QuantSchemeName(scheme));
    ASSERT_TRUE(WriteMatrixFile(path, x, scheme).ok());
    // A cell reads only its meta and code, and is charged the one block
    // that holds them.
    auto reader = RowStoreReader::Open(path);
    ASSERT_TRUE(reader.ok());
    const auto cell = reader->ReadCell(3, 4);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(reader->counter().accesses(), 1u);
    std::vector<double> row(x.cols());
    ASSERT_TRUE(reader->ReadRow(3, row).ok());
    EXPECT_EQ(*cell, row[4]);
  }
}

TEST(QuantRowStoreTest, RejectsBadSchemeAndTruncation) {
  const Matrix x = RandomMatrix(4, 5, 13);
  const std::string path = TempPath("quant_corrupt.mat");
  ASSERT_TRUE(WriteMatrixFile(path, x, QuantScheme::kI8).ok());
  const std::string bytes = SlurpFile(path);
  ASSERT_GT(bytes.size(), 32u);
  // Corrupt the scheme field (offset 24) to an unknown value.
  std::string corrupted = bytes;
  corrupted[24] = 9;
  DumpFile(path, corrupted);
  EXPECT_FALSE(RowStoreReader::Open(path).ok());
  // Truncated payload must fail the exact-size check.
  DumpFile(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_FALSE(RowStoreReader::Open(path).ok());
}

TEST(QuantCachedReaderTest, CachedReadsMatchDirectReads) {
  const Matrix x = RandomMatrix(30, 9, 31);
  for (const QuantScheme scheme : kAllSchemes) {
    const std::string path =
        TempPath(std::string("quant_cached_") + QuantSchemeName(scheme));
    ASSERT_TRUE(WriteMatrixFile(path, x, scheme).ok());
    auto direct = RowStoreReader::Open(path);
    ASSERT_TRUE(direct.ok());
    auto for_cache = RowStoreReader::Open(path);
    ASSERT_TRUE(for_cache.ok());
    CachedRowReader cached(std::move(*for_cache), 8);
    std::vector<double> want(x.cols());
    std::vector<double> got(x.cols());
    std::vector<std::uint8_t> scratch(cached.reader().row_stride_bytes());
    for (const std::size_t i : {0u, 29u, 15u, 0u, 29u}) {
      ASSERT_TRUE(direct->ReadRow(i, want).ok());
      ASSERT_TRUE(cached.ReadRow(i, got).ok());
      EXPECT_EQ(got, want);
      const auto qview = cached.ReadQuantRow(i, scratch);
      ASSERT_TRUE(qview.ok());
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_EQ(DecodeQuantValue(*qview, j), want[j]);
      }
    }
    // The repeats above must have hit the pool, not the disk.
    EXPECT_GT(cached.cache_hits(), 0u);
  }
}

TEST(QuantSvdModelTest, ApplyQuantizationSnapsAndShrinksAccounting) {
  const Matrix x = RandomMatrix(40, 16, 41);
  MatrixRowSource source(&x);
  SvdBuildOptions options;
  options.k = 6;
  auto model = BuildSvdModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::uint64_t f64_bytes = model->CompressedBytes();
  SvdModel quantized = *model;
  quantized.ApplyQuantization(QuantScheme::kI8);
  EXPECT_EQ(quantized.quant_scheme(), QuantScheme::kI8);
  EXPECT_LT(quantized.CompressedBytes(), f64_bytes);
  // Every U value moved to a decodable code near the original.
  for (std::size_t i = 0; i < model->u().rows(); ++i) {
    const QuantRowMeta meta =
        ComputeQuantRowMeta(QuantScheme::kI8, model->u().Row(i));
    const double bound = QuantStepAbsError(QuantScheme::kI8, meta) * 1.001;
    for (std::size_t p = 0; p < model->k(); ++p) {
      EXPECT_LE(std::abs(quantized.u()(i, p) - model->u()(i, p)), bound);
    }
  }
  // The scheme survives a serialize round-trip.
  const std::string path = TempPath("quant_svd_model.bin");
  ASSERT_TRUE(quantized.SaveToFile(path).ok());
  auto loaded = SvdModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->quant_scheme(), QuantScheme::kI8);
  EXPECT_EQ(loaded->u(), quantized.u());
  EXPECT_EQ(loaded->CompressedBytes(), quantized.CompressedBytes());
}

TEST(QuantSpaceBudgetTest, QuantizedURaisesAffordableK) {
  SpaceBudget budget = SpaceBudget::FromPercent(2000, 64, 5.0);
  const std::size_t k_f64 = budget.MaxK();
  const std::uint64_t f64_bytes = budget.SvdBytes(4);
  budget.u_quant = QuantScheme::kI8;
  EXPECT_LT(budget.SvdBytes(4), f64_bytes);
  const std::size_t k_i8 = budget.MaxK();
  EXPECT_GE(k_i8, k_f64);
  // MaxK must be exact against the (non-linear, padded) byte formula.
  EXPECT_LE(budget.SvdBytes(k_i8), budget.total_bytes);
  if (k_i8 < budget.num_cols) {
    EXPECT_GT(budget.SvdBytes(k_i8 + 1), budget.total_bytes);
  }
}

TEST(QuantSvddTest, QuantizedBuildServesFromDiskWithinBudgetedError) {
  // Low-rank data plus noise: the paper's setting, where the quantized
  // store should reconstruct almost as well as f64 at 1/8 the U bytes.
  Rng rng(71);
  const std::size_t n = 60;
  const std::size_t m = 24;
  Matrix x = RandomMatrix(n, 3, 72);
  const Matrix basis = RandomMatrix(3, m, 73);
  Matrix data(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double v = 0.0;
      for (std::size_t p = 0; p < 3; ++p) v += x(i, p) * basis(p, j);
      data(i, j) = v + 0.01 * rng.Gaussian();
    }
  }
  for (const QuantScheme scheme : kQuantSchemes) {
    MatrixRowSource source(&data);
    SvddBuildOptions options;
    options.space_percent = 30.0;
    options.quant = scheme;
    SvddBuildDiagnostics diag;
    auto model = BuildSvddModel(&source, options, &diag);
    ASSERT_TRUE(model.ok()) << QuantSchemeName(scheme);
    EXPECT_EQ(model->svd().quant_scheme(), scheme);

    const std::string path =
        TempPath(std::string("quant_svdd_") + QuantSchemeName(scheme));
    ASSERT_TRUE(model->SaveToFile(path).ok());

    // Serve both uncached and through the buffer pool; each must agree
    // with the in-memory model, whose U rows were snapped to exactly the
    // values the file stores.
    for (const std::size_t cache_blocks : {0u, 16u}) {
      DiskBackedOptions disk_options;
      disk_options.cache_blocks = cache_blocks;
      auto store = DiskBackedStore::Open(path, disk_options);
      ASSERT_TRUE(store.ok());
      EXPECT_EQ(store->u_scheme(), scheme);
      EXPECT_EQ(store->u_row_stride_bytes(), QuantRowStride(scheme, model->k()));
      for (const auto& [i, j] : std::vector<std::pair<std::size_t, std::size_t>>{
               {0, 0}, {17, 5}, {59, 23}, {31, 12}}) {
        const auto value = store->ReconstructCell(i, j);
        ASSERT_TRUE(value.ok());
        EXPECT_EQ(*value, model->ReconstructCell(i, j));
      }
      std::vector<double> disk_row(m);
      std::vector<double> mem_row(m);
      ASSERT_TRUE(store->model().TryReconstructRow(17, disk_row).ok());
      model->ReconstructRow(17, mem_row);
      EXPECT_EQ(disk_row, mem_row);
      const std::vector<std::size_t> region_rows = {2, 11, 47};
      const std::vector<std::size_t> region_cols = {0, 5, 6, 20};
      Matrix disk_region;
      Matrix mem_region;
      ASSERT_TRUE(store->model()
                      .ReconstructRegion(region_rows, region_cols, &disk_region)
                      .ok());
      ASSERT_TRUE(
          model->ReconstructRegion(region_rows, region_cols, &mem_region)
              .ok());
      EXPECT_EQ(disk_region, mem_region);
      // The file holds U's rows at their quantized stride.
      EXPECT_EQ(store->u_bytes(), n * QuantRowStride(scheme, model->k()));
    }

    // The end-to-end error budget: truncation plus quantization, with
    // the deltas repairing the worst cells. The data is rank 3 with 0.01
    // noise, so reconstruction error must stay well under the signal.
    DiskBackedOptions disk_options;
    disk_options.cache_blocks = 8;
    auto store = DiskBackedStore::Open(path, disk_options);
    ASSERT_TRUE(store.ok());
    double max_err = 0.0;
    std::vector<double> row(m);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(store->model().TryReconstructRow(i, row).ok());
      for (std::size_t j = 0; j < m; ++j) {
        max_err = std::max(max_err, std::abs(row[j] - data(i, j)));
      }
    }
    double data_absmax = 0.0;
    for (const double v : data.data()) {
      data_absmax = std::max(data_absmax, std::abs(v));
    }
    EXPECT_LE(max_err, 0.05 * data_absmax) << QuantSchemeName(scheme);
    // The served model's accounting charges the true quantized payload.
    EXPECT_EQ(store->model().CompressedBytes(),
              static_cast<std::uint64_t>(n) * QuantRowStride(scheme, model->k()) +
                  (model->k() + model->k() * m) * sizeof(double) +
                  model->deltas()->PackedBytes());
  }
}

/// A small SVDD model under `scheme`, saved to `path`.
SvddModel SaveSmallModel(QuantScheme scheme, const std::string& path) {
  const Matrix data = RandomMatrix(70, 20, 90);
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 30.0;
  options.quant = scheme;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  TSC_CHECK_OK(model->SaveToFile(path));
  return std::move(*model);
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::vector<char>* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

TEST(QuantModelFileTest, HostileUSectionsAreIoErrors) {
  // Every corruption of the U section, in either layout, ends as an
  // IO_ERROR from both loaders, before any allocation is sized from it.
  for (const QuantScheme scheme : kAllSchemes) {
    SCOPED_TRACE(QuantSchemeName(scheme));
    const std::string good = TempPath("hostile_u_good.model");
    const SvddModel model = SaveSmallModel(scheme, good);
    const std::vector<char> bytes = ReadFileBytes(good);
    const std::size_t k = model.k();
    const std::size_t m = model.cols();
    // "SVDD", "SVD1"/"SVD2", b, scheme, the k eigenvalues, V; then U.
    constexpr std::size_t kSchemeAt = 4 + 4 + 8;
    const std::size_t rows_at = kSchemeAt + 4 + 8 + 8 * k + 16 + 8 * m * k;
    const std::size_t cols_at = rows_at + 8;
    const std::size_t stride = QuantRowStride(scheme, k);
    const std::size_t payload_at = (cols_at + 8 + 7) / 8 * 8;
    const std::size_t u_at = scheme == QuantScheme::kF64 ? cols_at + 8
                                                         : payload_at;
    std::uint64_t stored_rows = 0;
    std::memcpy(&stored_rows, bytes.data() + rows_at, 8);
    ASSERT_EQ(stored_rows, model.rows());

    std::vector<std::pair<std::string, std::vector<char>>> hostile;
    hostile.emplace_back(
        "truncated section",
        std::vector<char>(bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(
                                              u_at + 10 * stride + 3)));
    std::vector<char> copy = bytes;
    Poke<std::uint64_t>(&copy, rows_at, std::uint64_t{1} << 61);
    hostile.emplace_back("rows x stride overflow", copy);
    copy = bytes;
    Poke<std::uint64_t>(&copy, rows_at, bytes.size() / stride + 1);
    hostile.emplace_back("rows past EOF", copy);
    copy = bytes;
    Poke<std::uint32_t>(&copy, kSchemeAt, 9);
    hostile.emplace_back("unknown scheme", copy);
    if (scheme != QuantScheme::kF64) {
      copy = bytes;
      Poke<std::uint32_t>(&copy, kSchemeAt, 0);
      hostile.emplace_back("codes under the f64 scheme", copy);
    }
    copy = bytes;
    Poke<std::uint64_t>(&copy, cols_at, k + 1);
    hostile.emplace_back("cols != k", copy);
    copy = bytes;
    Poke<std::uint64_t>(&copy, kSchemeAt - 8, 16);  // the b field
    hostile.emplace_back("b field neither 8 nor 4", copy);
    copy = bytes;
    copy[u_at + (model.rows() / 2) * stride + kQuantRowMetaBytes] ^= 0x10;
    hostile.emplace_back("flipped U byte", copy);

    const std::string path = TempPath("hostile_u.model");
    for (const auto& [what, file] : hostile) {
      SCOPED_TRACE(what);
      WriteFileBytes(path, file);
      const auto loaded = SvddModel::LoadFromFile(path);
      EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
          << loaded.status().ToString();
      for (const std::size_t cache_blocks : {0u, 8u}) {
        DiskBackedOptions options;
        options.cache_blocks = cache_blocks;
        const auto store = DiskBackedStore::Open(path, options);
        EXPECT_EQ(store.status().code(), StatusCode::kIoError)
            << store.status().ToString();
      }
    }
    // The untouched bytes still load both ways.
    WriteFileBytes(path, bytes);
    ASSERT_TRUE(SvddModel::LoadFromFile(path).ok());
    ASSERT_TRUE(DiskBackedStore::Open(path).ok());
  }
}

TEST(QuantModelFileTest, LegacyB4FilesLoadAndAreChargedAtEightBytes) {
  // The retired b=4 mode wrote f64 files with 4 in the header's b field.
  // They load and serve their stored values, in memory and from disk, and
  // are charged the 8 bytes per value they hold (a value other than 8 or
  // 4 is one of the hostile headers above).
  const SvddModel model =
      SaveSmallModel(QuantScheme::kF64, TempPath("legacy_source.model"));
  const SvddModel legacy = RoundedThroughFloat(model);
  const std::string path = TempPath("legacy_b4.model");
  ASSERT_TRUE(WriteModelWithSnappedU(legacy, path, 4).ok());
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::uint64_t k = legacy.k();
  EXPECT_EQ(loaded->svd().CompressedBytes(),
            (legacy.rows() * k + k + k * legacy.cols()) * 8);
  EXPECT_EQ(loaded->CompressedBytes(), legacy.CompressedBytes());
  DiskBackedOptions options;
  options.cache_blocks = 8;
  const auto store = DiskBackedStore::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<double> want(legacy.cols());
  std::vector<double> got(legacy.cols());
  for (std::size_t i = 0; i < legacy.rows(); ++i) {
    legacy.ReconstructRow(i, want);
    loaded->ReconstructRow(i, got);
    ASSERT_EQ(got, want) << "memory row " << i;
    ASSERT_TRUE(store->model().TryReconstructRow(i, got).ok());
    ASSERT_EQ(got, want) << "disk row " << i;
  }
}

TEST(QuantSvddTest, QuantErrorFeedsDeltaSelection) {
  // With quantization on, pass 2 ranks cells by truncation+quantization
  // error; the chosen deltas must repair the worst quantized cells, so
  // the final max error beats the same build with deltas ignored.
  Rng rng(81);
  const std::size_t n = 40;
  const std::size_t m = 16;
  Matrix data = RandomMatrix(n, m, 82);
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 40.0;
  options.quant = QuantScheme::kI8;
  // Pin k below what the budget affords so the leftover buys deltas.
  options.forced_k = 4;
  auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  double max_with_deltas = 0.0;
  double max_without = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      max_with_deltas = std::max(
          max_with_deltas, std::abs(model->ReconstructCell(i, j) - data(i, j)));
      max_without = std::max(
          max_without,
          std::abs(model->svd().ReconstructCell(i, j) - data(i, j)));
    }
  }
  EXPECT_LT(max_with_deltas, max_without);
}

}  // namespace
}  // namespace tsc
