#ifndef TSC_LINALG_KERNELS_H_
#define TSC_LINALG_KERNELS_H_

#include <cstddef>

namespace tsc::kernels {

/// Instruction-set tier the hot-loop kernels run at. Resolved once per
/// process: AVX2+FMA when the CPU reports both, otherwise the portable
/// scalar code. `TSC_SIMD=scalar` in the environment forces the fallback
/// (the property tests and A/B measurements use this).
enum class SimdLevel {
  kScalar,
  kAvx2,
};

const char* SimdLevelName(SimdLevel level);

/// The dispatch decision as a pure function of its inputs (unit-testable
/// without touching the process environment): `env_value` is the raw
/// TSC_SIMD setting (null when unset), `hw_avx2_fma` whether the CPU has
/// AVX2 and FMA. Any env value other than "scalar"/"avx2" is ignored;
/// "avx2" without hardware support falls back to scalar.
SimdLevel ResolveSimdLevel(const char* env_value, bool hw_avx2_fma);

/// The level every dispatched kernel below actually runs at, resolved on
/// first call from the CPU and TSC_SIMD.
SimdLevel ActiveSimdLevel();

// ---------------------------------------------------------------------------
// Dispatched kernels. All pointers may alias only where noted; n == 0 is
// legal everywhere. The scalar and SIMD tiers agree to within normal
// floating-point reassociation (the SIMD code uses FMA and multiple
// accumulators), not bit-for-bit.
// ---------------------------------------------------------------------------

/// Inner product of a[0..n) and b[0..n).
double Dot(const double* a, const double* b, std::size_t n);

/// y[i] += alpha * x[i] for i in [0, n). x and y must not overlap.
void Axpy(double alpha, const double* x, double* y, std::size_t n);

/// Fused dot-batch: out[r] = dot(rows + r*stride, x, n) for r in
/// [0, count). One pass that keeps x hot across the batch; `stride` is
/// the leading dimension of the row-major block (stride >= n).
void DotBatch(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out);

/// Blocked GEMV: y[r] += dot(a + r*stride, x, n) for r in [0, rows).
void Gemv(const double* a, std::size_t rows, std::size_t n,
          std::size_t stride, const double* x, double* y);

/// Blocked C = A * B^T micro-kernel (both operands row-major):
///   c[i*ldc + j] = dot(a + i*lda, b + j*ldb, k)
/// for i in [0, m), j in [0, n). This is the region-reconstruction shape:
/// A holds gathered U rows, B holds gathered Lambda-weighted V rows.
/// Overwrites C.
void GemmNT(const double* a, std::size_t m, std::size_t lda, const double* b,
            std::size_t n, std::size_t ldb, std::size_t k, double* c,
            std::size_t ldc);

/// Portable reference implementations (plain one-element loops, no FMA).
/// The dispatched kernels above compare against these in the property
/// tests; they are also what runs under TSC_SIMD=scalar.
namespace scalar {
double Dot(const double* a, const double* b, std::size_t n);
void Axpy(double alpha, const double* x, double* y, std::size_t n);
void DotBatch(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out);
void Gemv(const double* a, std::size_t rows, std::size_t n,
          std::size_t stride, const double* x, double* y);
void GemmNT(const double* a, std::size_t m, std::size_t lda, const double* b,
            std::size_t n, std::size_t ldb, std::size_t k, double* c,
            std::size_t ldc);
}  // namespace scalar

}  // namespace tsc::kernels

#endif  // TSC_LINALG_KERNELS_H_
