#include "storage/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace tsc {
namespace {

void CountRowsQuantized() {
  static obs::Counter& rows =
      obs::MetricRegistry::Default().GetCounter("quant.rows_quantized");
  rows.Increment();
}

void CountRowsDequantized() {
  static obs::Counter& rows =
      obs::MetricRegistry::Default().GetCounter("quant.rows_dequantized");
  rows.Increment();
}

}  // namespace

const char* QuantSchemeName(QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kF64:
      return "f64";
    case QuantScheme::kF32:
      return "f32";
    case QuantScheme::kI16:
      return "int16";
    case QuantScheme::kI8:
      return "int8";
  }
  return "unknown";
}

StatusOr<QuantScheme> ParseQuantScheme(const std::string& name) {
  if (name == "f64") return QuantScheme::kF64;
  if (name == "f32") return QuantScheme::kF32;
  if (name == "int16") return QuantScheme::kI16;
  if (name == "int8") return QuantScheme::kI8;
  return Status::InvalidArgument("unknown quant scheme: " + name +
                                 " (expected f64, f32, int16 or int8)");
}

QuantScheme ResolveQuantScheme(const char* env_value) {
  if (env_value == nullptr) return QuantScheme::kF64;
  const StatusOr<QuantScheme> parsed = ParseQuantScheme(env_value);
  return parsed.ok() ? *parsed : QuantScheme::kF64;
}

QuantScheme QuantSchemeFromEnv() {
  return ResolveQuantScheme(std::getenv("TSC_QUANT"));
}

std::size_t QuantElemBytes(QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kF64:
      return 8;
    case QuantScheme::kF32:
      return 4;
    case QuantScheme::kI16:
      return 2;
    case QuantScheme::kI8:
      return 1;
  }
  return 8;
}

std::size_t QuantRowStride(QuantScheme scheme, std::size_t cols) {
  if (scheme == QuantScheme::kF64) return cols * sizeof(double);
  const std::size_t code_bytes = cols * QuantElemBytes(scheme);
  return kQuantRowMetaBytes + ((code_bytes + 7) / 8) * 8;
}

std::int32_t QuantMaxCode(QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kI16:
      return 32767;
    case QuantScheme::kI8:
      return 127;
    default:
      return 0;
  }
}

QuantRowView StoredRowView(QuantScheme scheme, const std::uint8_t* row,
                           std::size_t n) {
  QuantRowView view{scheme, row, 1.0, 0.0, n};
  if (scheme != QuantScheme::kF64) {
    std::memcpy(&view.scale, row, 8);
    std::memcpy(&view.offset, row + 8, 8);
    view.data = row + kQuantRowMetaBytes;
  }
  return view;
}

QuantRowMeta ComputeQuantRowMeta(QuantScheme scheme,
                                 std::span<const double> row) {
  QuantRowMeta meta;
  const std::int32_t qmax = QuantMaxCode(scheme);
  if (qmax == 0 || row.empty()) return meta;
  const auto [lo_it, hi_it] = std::minmax_element(row.begin(), row.end());
  const double lo = *lo_it;
  const double hi = *hi_it;
  // Midrange-centered affine map: min and max land on -qmax/+qmax, a
  // constant row gets scale 0 (all codes 0, exact decode = offset).
  meta.offset = (lo + hi) / 2.0;
  meta.scale = (hi - lo) / (2.0 * static_cast<double>(qmax));
  if (!std::isfinite(meta.scale)) meta.scale = 0.0;
  return meta;
}

namespace {

template <typename Code>
void EncodeInt(std::span<const double> row, const QuantRowMeta& meta,
               std::int32_t qmax, Code* codes) {
  if (meta.scale == 0.0) {
    std::fill(codes, codes + row.size(), Code{0});
    return;
  }
  const double inv_scale = 1.0 / meta.scale;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const double q = (row[i] - meta.offset) * inv_scale;
    const long code = std::lround(q);
    const long clamped =
        std::clamp<long>(code, -static_cast<long>(qmax),
                         static_cast<long>(qmax));
    codes[i] = static_cast<Code>(clamped);
  }
}

template <typename Code>
void DecodeInt(const Code* codes, double scale, double offset,
               std::span<double> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = offset + scale * static_cast<double>(codes[i]);
  }
}

}  // namespace

void EncodeQuantRow(QuantScheme scheme, std::span<const double> row,
                    const QuantRowMeta& meta, void* codes) {
  switch (scheme) {
    case QuantScheme::kF64:
      std::memcpy(codes, row.data(), row.size() * sizeof(double));
      return;
    case QuantScheme::kF32: {
      float* dst = static_cast<float*>(codes);
      for (std::size_t i = 0; i < row.size(); ++i) {
        dst[i] = static_cast<float>(row[i]);
      }
      break;
    }
    case QuantScheme::kI16:
      EncodeInt(row, meta, QuantMaxCode(scheme),
                static_cast<std::int16_t*>(codes));
      break;
    case QuantScheme::kI8:
      EncodeInt(row, meta, QuantMaxCode(scheme),
                static_cast<std::int8_t*>(codes));
      break;
  }
  CountRowsQuantized();
}

void DecodeQuantRow(const QuantRowView& view, std::span<double> out) {
  TSC_CHECK_EQ(out.size(), view.n);
  switch (view.scheme) {
    case QuantScheme::kF64:
      std::memcpy(out.data(), view.data, view.n * sizeof(double));
      return;
    case QuantScheme::kF32: {
      const float* src = static_cast<const float*>(view.data);
      for (std::size_t i = 0; i < view.n; ++i) {
        out[i] = static_cast<double>(src[i]);
      }
      break;
    }
    case QuantScheme::kI16:
      DecodeInt(static_cast<const std::int16_t*>(view.data), view.scale,
                view.offset, out);
      break;
    case QuantScheme::kI8:
      DecodeInt(static_cast<const std::int8_t*>(view.data), view.scale,
                view.offset, out);
      break;
  }
  CountRowsDequantized();
}

double DecodeQuantValue(const QuantRowView& view, std::size_t i) {
  TSC_DCHECK(i < view.n);
  switch (view.scheme) {
    case QuantScheme::kF64:
      return static_cast<const double*>(view.data)[i];
    case QuantScheme::kF32:
      return static_cast<const float*>(view.data)[i];
    case QuantScheme::kI16:
      return view.offset +
             view.scale *
                 static_cast<double>(
                     static_cast<const std::int16_t*>(view.data)[i]);
    case QuantScheme::kI8:
      return view.offset +
             view.scale *
                 static_cast<double>(
                     static_cast<const std::int8_t*>(view.data)[i]);
  }
  return 0.0;
}

QuantRowMeta SnapQuantRow(QuantScheme scheme, std::span<double> row) {
  const QuantRowMeta meta = ComputeQuantRowMeta(scheme, row);
  if (scheme == QuantScheme::kF64) return meta;
  for (double& v : row) v = SnapQuantValue(scheme, meta, v);
  return meta;
}

double SnapQuantValue(QuantScheme scheme, const QuantRowMeta& meta,
                      double value) {
  switch (scheme) {
    case QuantScheme::kF64:
      return value;
    case QuantScheme::kF32:
      return static_cast<float>(value);
    case QuantScheme::kI16:
    case QuantScheme::kI8:
      break;
  }
  if (meta.scale == 0.0) return meta.offset;
  const long qmax = QuantMaxCode(scheme);
  const long code = std::clamp<long>(
      std::lround((value - meta.offset) * (1.0 / meta.scale)), -qmax, qmax);
  return meta.offset + meta.scale * static_cast<double>(code);
}

double QuantStepAbsError(QuantScheme scheme, const QuantRowMeta& meta) {
  return QuantMaxCode(scheme) == 0 ? 0.0 : meta.scale / 2.0;
}

}  // namespace tsc
