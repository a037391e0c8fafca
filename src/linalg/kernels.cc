#include "linalg/kernels.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TSC_KERNELS_X86 1
#endif

namespace tsc::kernels {

// ---------------------------------------------------------------------------
// Scalar reference tier.
// ---------------------------------------------------------------------------

namespace scalar {

double Dot(const double* a, const double* b, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void DotBatch(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out) {
  for (std::size_t r = 0; r < count; ++r) {
    out[r] = Dot(rows + r * stride, x, n);
  }
}

void Gemv(const double* a, std::size_t rows, std::size_t n,
          std::size_t stride, const double* x, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    y[r] += Dot(a + r * stride, x, n);
  }
}

void GemmNT(const double* a, std::size_t m, std::size_t lda, const double* b,
            std::size_t n, std::size_t ldb, std::size_t k, double* c,
            std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] = Dot(a + i * lda, b + j * ldb, k);
    }
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 + FMA tier. Compiled with a per-function target attribute so the
// translation unit itself stays buildable at the portable baseline; the
// functions are only ever called after the runtime CPU check passes.
// ---------------------------------------------------------------------------

#ifdef TSC_KERNELS_X86
namespace avx2 {

__attribute__((target("avx2,fma"))) inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

__attribute__((target("avx2,fma"))) double Dot(const double* a,
                                               const double* b,
                                               std::size_t n) {
  // Four independent accumulators hide the FMA latency chain; 16 lanes
  // per iteration keeps the loads streaming.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2,fma"))) void Axpy(double alpha, const double* x,
                                              double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Two rows against one x: shares every load of x across both rows.
__attribute__((target("avx2,fma"))) inline void Dot2(
    const double* r0, const double* r1, const double* x, std::size_t n,
    double* out0, double* out1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + i), vx, acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + i), vx, acc1);
  }
  double t0 = HorizontalSum(acc0);
  double t1 = HorizontalSum(acc1);
  for (; i < n; ++i) {
    t0 += r0[i] * x[i];
    t1 += r1[i] * x[i];
  }
  *out0 = t0;
  *out1 = t1;
}

__attribute__((target("avx2,fma"))) void DotBatch(
    const double* rows, std::size_t stride, std::size_t count,
    const double* x, std::size_t n, double* out) {
  std::size_t r = 0;
  for (; r + 2 <= count; r += 2) {
    Dot2(rows + r * stride, rows + (r + 1) * stride, x, n, out + r,
         out + r + 1);
  }
  if (r < count) out[r] = Dot(rows + r * stride, x, n);
}

__attribute__((target("avx2,fma"))) void Gemv(const double* a,
                                              std::size_t rows, std::size_t n,
                                              std::size_t stride,
                                              const double* x, double* y) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    double t0;
    double t1;
    Dot2(a + r * stride, a + (r + 1) * stride, x, n, &t0, &t1);
    y[r] += t0;
    y[r + 1] += t1;
  }
  if (r < rows) y[r] += Dot(a + r * stride, x, n);
}

/// 2x2 register-blocked tile: 4 accumulators, every A/B load feeds two
/// FMAs, halving the load-per-flop of the plain dot loop.
__attribute__((target("avx2,fma"))) inline void Gemm2x2(
    const double* a0, const double* a1, const double* b0, const double* b1,
    std::size_t k, double* c00, double* c01, double* c10, double* c11) {
  __m256d v00 = _mm256_setzero_pd();
  __m256d v01 = _mm256_setzero_pd();
  __m256d v10 = _mm256_setzero_pd();
  __m256d v11 = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256d va0 = _mm256_loadu_pd(a0 + p);
    const __m256d va1 = _mm256_loadu_pd(a1 + p);
    const __m256d vb0 = _mm256_loadu_pd(b0 + p);
    const __m256d vb1 = _mm256_loadu_pd(b1 + p);
    v00 = _mm256_fmadd_pd(va0, vb0, v00);
    v01 = _mm256_fmadd_pd(va0, vb1, v01);
    v10 = _mm256_fmadd_pd(va1, vb0, v10);
    v11 = _mm256_fmadd_pd(va1, vb1, v11);
  }
  double t00 = HorizontalSum(v00);
  double t01 = HorizontalSum(v01);
  double t10 = HorizontalSum(v10);
  double t11 = HorizontalSum(v11);
  for (; p < k; ++p) {
    t00 += a0[p] * b0[p];
    t01 += a0[p] * b1[p];
    t10 += a1[p] * b0[p];
    t11 += a1[p] * b1[p];
  }
  *c00 = t00;
  *c01 = t01;
  *c10 = t10;
  *c11 = t11;
}

__attribute__((target("avx2,fma"))) void GemmNT(
    const double* a, std::size_t m, std::size_t lda, const double* b,
    std::size_t n, std::size_t ldb, std::size_t k, double* c,
    std::size_t ldc) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + i * lda;
    const double* a1 = a + (i + 1) * lda;
    double* c0 = c + i * ldc;
    double* c1 = c + (i + 1) * ldc;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      Gemm2x2(a0, a1, b + j * ldb, b + (j + 1) * ldb, k, c0 + j, c0 + j + 1,
              c1 + j, c1 + j + 1);
    }
    if (j < n) {
      Dot2(a0, a1, b + j * ldb, k, c0 + j, c1 + j);
    }
  }
  if (i < m) {
    // The odd remainder row runs through the exact same per-cell
    // accumulation as the paired rows (duplicate-row tiles, scratch
    // second outputs): a row's bytes must not depend on its position in
    // the call.
    const double* a0 = a + i * lda;
    double* c0 = c + i * ldc;
    double scratch0;
    double scratch1;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      Gemm2x2(a0, a0, b + j * ldb, b + (j + 1) * ldb, k, c0 + j, c0 + j + 1,
              &scratch0, &scratch1);
    }
    if (j < n) {
      Dot2(a0, a0, b + j * ldb, k, c0 + j, &scratch0);
    }
  }
}

}  // namespace avx2
#endif  // TSC_KERNELS_X86

// ---------------------------------------------------------------------------
// Dispatch. Resolved once; every kernel then runs one predictable
// indirect call (or gets inlined into the scalar tier off x86).
// ---------------------------------------------------------------------------

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ResolveSimdLevel(const char* env_value, bool hw_avx2_fma) {
  if (env_value != nullptr && std::strcmp(env_value, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  // "avx2" (or no/unknown setting) means: best the hardware offers.
  return hw_avx2_fma ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

namespace {

bool HardwareHasAvx2Fma() {
#ifdef TSC_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level =
      ResolveSimdLevel(std::getenv("TSC_SIMD"), HardwareHasAvx2Fma());
  return level;
}

#ifdef TSC_KERNELS_X86
namespace {
inline bool UseAvx2() { return ActiveSimdLevel() == SimdLevel::kAvx2; }
}  // namespace

double Dot(const double* a, const double* b, std::size_t n) {
  return UseAvx2() ? avx2::Dot(a, b, n) : scalar::Dot(a, b, n);
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  if (UseAvx2()) {
    avx2::Axpy(alpha, x, y, n);
  } else {
    scalar::Axpy(alpha, x, y, n);
  }
}

void DotBatch(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out) {
  if (UseAvx2()) {
    avx2::DotBatch(rows, stride, count, x, n, out);
  } else {
    scalar::DotBatch(rows, stride, count, x, n, out);
  }
}

void Gemv(const double* a, std::size_t rows, std::size_t n,
          std::size_t stride, const double* x, double* y) {
  if (UseAvx2()) {
    avx2::Gemv(a, rows, n, stride, x, y);
  } else {
    scalar::Gemv(a, rows, n, stride, x, y);
  }
}

void GemmNT(const double* a, std::size_t m, std::size_t lda, const double* b,
            std::size_t n, std::size_t ldb, std::size_t k, double* c,
            std::size_t ldc) {
  if (UseAvx2()) {
    avx2::GemmNT(a, m, lda, b, n, ldb, k, c, ldc);
  } else {
    scalar::GemmNT(a, m, lda, b, n, ldb, k, c, ldc);
  }
}

#else  // !TSC_KERNELS_X86

double Dot(const double* a, const double* b, std::size_t n) {
  return scalar::Dot(a, b, n);
}
void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  scalar::Axpy(alpha, x, y, n);
}
void DotBatch(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out) {
  scalar::DotBatch(rows, stride, count, x, n, out);
}
void Gemv(const double* a, std::size_t rows, std::size_t n,
          std::size_t stride, const double* x, double* y) {
  scalar::Gemv(a, rows, n, stride, x, y);
}
void GemmNT(const double* a, std::size_t m, std::size_t lda, const double* b,
            std::size_t n, std::size_t ldb, std::size_t k, double* c,
            std::size_t ldc) {
  scalar::GemmNT(a, m, lda, b, n, ldb, k, c, ldc);
}

#endif  // TSC_KERNELS_X86

}  // namespace tsc::kernels
