#ifndef TSC_STORAGE_QUANT_H_
#define TSC_STORAGE_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/status.h"

namespace tsc {

/// How the coefficients of a U row are stored on disk. The paper's whole
/// trade is bytes for bounded error; this is that trade applied to the
/// row store itself: f32 halves the row, int16 quarters it, int8 cuts it
/// 8x, each with a per-row affine decode value = offset + scale * code.
/// kF64 is the exact passthrough (the original "TSCROWS1" layout).
enum class QuantScheme : std::uint32_t {
  kF64 = 0,
  kF32 = 1,
  kI16 = 2,
  kI8 = 3,
};

/// Stable lowercase name ("f64", "f32", "int16", "int8").
const char* QuantSchemeName(QuantScheme scheme);

/// Parses a scheme name; anything other than the four names fails.
StatusOr<QuantScheme> ParseQuantScheme(const std::string& name);

/// Bytes per stored coefficient (8, 4, 2, 1).
std::size_t QuantElemBytes(QuantScheme scheme);

/// Per-row metadata for the quantized layouts: scale then offset, 16
/// bytes, stored inline ahead of the codes so one row read fetches both.
constexpr std::size_t kQuantRowMetaBytes = 16;

/// On-disk bytes of one row of `cols` coefficients: cols * 8 for kF64
/// (the unchanged TSCROWS1 row), otherwise kQuantRowMetaBytes plus the
/// codes padded up to a multiple of 8 — so with the 32-byte TSCROWQ1
/// header every row (and its meta doubles) starts 8-byte aligned in a
/// buffer holding a run of rows.
std::size_t QuantRowStride(QuantScheme scheme, std::size_t cols);

/// Largest code magnitude of the integer schemes (127 / 32767); 0 for
/// the non-integer schemes.
std::int32_t QuantMaxCode(QuantScheme scheme);

/// The affine decode parameters of one row.
struct QuantRowMeta {
  double scale = 1.0;
  double offset = 0.0;
};

/// A quantized row as served from disk:
/// `data` points at the codes — doubles for kF64, floats for kF32,
/// int16/int8 codes otherwise — and decode(i) = offset + scale * code[i]
/// for the integer schemes.
struct QuantRowView {
  QuantScheme scheme = QuantScheme::kF64;
  const void* data = nullptr;
  double scale = 1.0;
  double offset = 0.0;
  std::size_t n = 0;
};

/// The view over one stored row (a TSCROWQ1 row: the 16-byte meta, then
/// `n` codes; for kF64 the `n` doubles themselves). `row` must be 8-byte
/// aligned.
QuantRowView StoredRowView(QuantScheme scheme, const std::uint8_t* row,
                           std::size_t n);

/// Decode parameters for `row`: the integer schemes center the affine
/// map on the row's midrange (offset = (min+max)/2, scale spanning the
/// half-range over the code range), so a constant row has scale 0 and
/// decodes exactly. The non-integer schemes return the identity meta.
QuantRowMeta ComputeQuantRowMeta(QuantScheme scheme,
                                 std::span<const double> row);

/// Encodes `row` into `codes` (QuantElemBytes(scheme) * row.size()
/// bytes) under `meta`. Integer codes are rounded to nearest and clamped
/// to the code range. kF64 is a plain copy, kF32 a float narrowing.
void EncodeQuantRow(QuantScheme scheme, std::span<const double> row,
                    const QuantRowMeta& meta, void* codes);

/// Decodes `view` into `out` (size view.n).
void DecodeQuantRow(const QuantRowView& view, std::span<double> out);

/// Decode of a single coefficient of `view`.
double DecodeQuantValue(const QuantRowView& view, std::size_t i);

/// Replaces every value of `row` by its decode(encode(value)) image —
/// the row the quantized store will actually serve. Returns the meta the
/// encode used. The SVDD build snaps U rows with this so the in-memory
/// model, the delta selection, and the exported file all agree on the
/// post-quantization values.
QuantRowMeta SnapQuantRow(QuantScheme scheme, std::span<double> row);

/// The decode(encode(value)) image of one coefficient under `meta`, bit
/// for bit what SnapQuantRow gives it when `meta` is its row's meta.
double SnapQuantValue(QuantScheme scheme, const QuantRowMeta& meta,
                      double value);

/// Worst-case absolute decode error of the integer schemes under `meta`
/// (half a code step); 0 for kF64. For kF32 the error is relative
/// (2^-24), so callers bound it with the row's largest magnitude:
/// |v| * 2^-24.
double QuantStepAbsError(QuantScheme scheme, const QuantRowMeta& meta);

}  // namespace tsc

#endif  // TSC_STORAGE_QUANT_H_
