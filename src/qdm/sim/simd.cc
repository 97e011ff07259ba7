#include "qdm/sim/simd.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <utility>

// The AVX2 tier is compiled via per-function target attributes (no global
// -mavx2), so the rest of the translation unit — and the whole library —
// stays runnable on any x86-64 machine; DetectedTier() gates every call at
// runtime.
#if defined(QDM_ENABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QDM_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace qdm {
namespace sim {
namespace simd {

namespace {

#if QDM_SIMD_HAVE_AVX2
bool EnvDisablesSimd() {
  const char* env = std::getenv("QDM_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
         std::strcmp(env, "false") == 0;
}
#endif

Tier DetectTier() {
#if QDM_SIMD_HAVE_AVX2
  if (!EnvDisablesSimd() && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

}  // namespace

bool CompiledWithSimd() {
#if QDM_SIMD_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

Tier DetectedTier() {
  static const Tier tier = DetectTier();
  return tier;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace {

// The reference pair update that every tier reproduces bit for bit.
inline void Apply1QPair(Complex* lo, Complex* hi, const Complex* u) {
  const Complex a0 = *lo;
  const Complex a1 = *hi;
  *lo = u[0] * a0 + u[1] * a1;
  *hi = u[2] * a0 + u[3] * a1;
}

}  // namespace

void Apply1QRangeScalar(Complex* amp, uint64_t step, uint64_t control_mask,
                        uint64_t begin, uint64_t end, const Complex* u) {
  // Every index in one run shares its bits above the target, so the
  // above-target controls are tested once per run; only the below-target
  // ones vary inside it.
  const uint64_t low_mask = step - 1;
  const uint64_t high_ctrl = control_mask & ~low_mask;
  const uint64_t low_ctrl = control_mask & low_mask;
  for (uint64_t p = begin; p < end;) {
    const uint64_t run = std::min(step - (p & low_mask), end - p);
    const uint64_t base = ((p & ~low_mask) << 1) | (p & low_mask);
    if ((base & high_ctrl) == high_ctrl) {
      for (uint64_t i = base; i < base + run; ++i) {
        if ((i & low_ctrl) == low_ctrl) Apply1QPair(amp + i, amp + i + step, u);
      }
    }
    p += run;
  }
}

void DiagonalPhaseRunScalar(Complex* amp, const double* phases, double scale,
                            uint64_t n) {
  for (uint64_t z = 0; z < n; ++z) {
    amp[z] *= std::polar(1.0, scale * phases[z]);
  }
}

void PhasorRunScalar(Complex* amp, const Complex* factors, uint64_t n) {
  for (uint64_t z = 0; z < n; ++z) amp[z] *= factors[z];
}

void SwapRunScalar(Complex* x, Complex* y, uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) std::swap(x[k], y[k]);
}

#if QDM_SIMD_HAVE_AVX2

namespace {

// u * a over two interleaved complex lanes a = [ar0 ai0 ar1 ai1], with the
// coefficient u pre-split into ur = [u.re x4] and ui = [u.im x4]:
//   even lanes  u.re*a.re - u.im*a.im
//   odd lanes   u.re*a.im + u.im*a.re
// via one in-lane re/im swap and ADDSUBPD — the exact multiply / subtract /
// add sequence (and therefore rounding) of the scalar std::complex product,
// two pairs at a time. Deliberately NOT fused into FMA: vfmadd skips the
// intermediate rounding and would break bit-identity with the scalar
// reference kernels.
__attribute__((target("avx2"))) inline __m256d ComplexMul(__m256d ur,
                                                          __m256d ui,
                                                          __m256d a) {
  const __m256d a_swap = _mm256_permute_pd(a, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(ur, a), _mm256_mul_pd(ui, a_swap));
}

}  // namespace

__attribute__((target("avx2"))) void Apply1QRangeAvx2(
    Complex* amp, uint64_t step, uint64_t control_mask, uint64_t begin,
    uint64_t end, const Complex* u) {
  double* ad = reinterpret_cast<double*>(amp);
  if (step == 1) {
    // Target 0: one full (a0, a1) pair per 256-bit register. Lanes 0-1
    // produce the new a0 with row (u00, u01), lanes 2-3 the new a1 with row
    // (u10, u11).
    const __m256d row_r =
        _mm256_setr_pd(u[0].real(), u[0].real(), u[2].real(), u[2].real());
    const __m256d row_i =
        _mm256_setr_pd(u[0].imag(), u[0].imag(), u[2].imag(), u[2].imag());
    const __m256d col_r =
        _mm256_setr_pd(u[1].real(), u[1].real(), u[3].real(), u[3].real());
    const __m256d col_i =
        _mm256_setr_pd(u[1].imag(), u[1].imag(), u[3].imag(), u[3].imag());
    for (uint64_t p = begin; p < end; ++p) {
      if (((2 * p) & control_mask) != control_mask) continue;
      const __m256d a = _mm256_loadu_pd(ad + 4 * p);
      const __m256d a0_dup = _mm256_permute2f128_pd(a, a, 0x00);  // [a0, a0]
      const __m256d a1_dup = _mm256_permute2f128_pd(a, a, 0x11);  // [a1, a1]
      _mm256_storeu_pd(ad + 4 * p,
                       _mm256_add_pd(ComplexMul(row_r, row_i, a0_dup),
                                     ComplexMul(col_r, col_i, a1_dup)));
    }
    return;
  }
  const __m256d u00r = _mm256_set1_pd(u[0].real());
  const __m256d u00i = _mm256_set1_pd(u[0].imag());
  const __m256d u01r = _mm256_set1_pd(u[1].real());
  const __m256d u01i = _mm256_set1_pd(u[1].imag());
  const __m256d u10r = _mm256_set1_pd(u[2].real());
  const __m256d u10i = _mm256_set1_pd(u[2].imag());
  const __m256d u11r = _mm256_set1_pd(u[3].real());
  const __m256d u11i = _mm256_set1_pd(u[3].imag());
  // Same run walk and control split as Apply1QRangeScalar.
  const uint64_t low_mask = step - 1;
  const uint64_t high_ctrl = control_mask & ~low_mask;
  const uint64_t low_ctrl = control_mask & low_mask;
  for (uint64_t p = begin; p < end;) {
    const uint64_t run = std::min(step - (p & low_mask), end - p);
    const uint64_t base = ((p & ~low_mask) << 1) | (p & low_mask);
    p += run;
    if ((base & high_ctrl) != high_ctrl) continue;
    Complex* lo = amp + base;
    Complex* hi = lo + step;
    if (low_ctrl != 0) {
      for (uint64_t k = 0; k < run; ++k) {
        if (((base + k) & low_ctrl) == low_ctrl) {
          Apply1QPair(lo + k, hi + k, u);
        }
      }
      continue;
    }
    double* lod = ad + 2 * base;
    double* hid = lod + 2 * step;
    uint64_t k = 0;
    for (; k + 2 <= run; k += 2) {
      const __m256d a0 = _mm256_loadu_pd(lod + 2 * k);
      const __m256d a1 = _mm256_loadu_pd(hid + 2 * k);
      _mm256_storeu_pd(lod + 2 * k,
                       _mm256_add_pd(ComplexMul(u00r, u00i, a0),
                                     ComplexMul(u01r, u01i, a1)));
      _mm256_storeu_pd(hid + 2 * k,
                       _mm256_add_pd(ComplexMul(u10r, u10i, a0),
                                     ComplexMul(u11r, u11i, a1)));
    }
    // Odd run length (a chunk edge): one trailing pair, reference arithmetic.
    if (k < run) Apply1QPair(lo + k, hi + k, u);
  }
}

__attribute__((target("avx2"))) void DiagonalPhaseRunAvx2(Complex* amp,
                                                          const double* phases,
                                                          double scale,
                                                          uint64_t n) {
  double* ad = reinterpret_cast<double*>(amp);
  uint64_t z = 0;
  for (; z + 2 <= n; z += 2) {
    // polar() stays scalar libm (bit-identity with the reference); only the
    // complex multiply runs on vector lanes.
    const Complex p0 = std::polar(1.0, scale * phases[z]);
    const Complex p1 = std::polar(1.0, scale * phases[z + 1]);
    const __m256d pr = _mm256_setr_pd(p0.real(), p0.real(), p1.real(),
                                      p1.real());
    const __m256d pi = _mm256_setr_pd(p0.imag(), p0.imag(), p1.imag(),
                                      p1.imag());
    const __m256d a = _mm256_loadu_pd(ad + 2 * z);
    const __m256d a_swap = _mm256_permute_pd(a, 0x5);
    _mm256_storeu_pd(ad + 2 * z, _mm256_addsub_pd(_mm256_mul_pd(a, pr),
                                                  _mm256_mul_pd(a_swap, pi)));
  }
  if (z < n) amp[z] *= std::polar(1.0, scale * phases[z]);
}

__attribute__((target("avx2"))) void PhasorRunAvx2(Complex* amp,
                                                   const Complex* factors,
                                                   uint64_t n) {
  double* ad = reinterpret_cast<double*>(amp);
  const double* fd = reinterpret_cast<const double*>(factors);
  uint64_t z = 0;
  for (; z + 2 <= n; z += 2) {
    // The DiagonalPhaseRunAvx2 product with the factors loaded instead of
    // evaluated: pr = [f0.re f0.re f1.re f1.re], pi = [f0.im f0.im ...].
    const __m256d f = _mm256_loadu_pd(fd + 2 * z);
    const __m256d pr = _mm256_movedup_pd(f);
    const __m256d pi = _mm256_permute_pd(f, 0xF);
    const __m256d a = _mm256_loadu_pd(ad + 2 * z);
    const __m256d a_swap = _mm256_permute_pd(a, 0x5);
    _mm256_storeu_pd(ad + 2 * z, _mm256_addsub_pd(_mm256_mul_pd(a, pr),
                                                  _mm256_mul_pd(a_swap, pi)));
  }
  if (z < n) amp[z] *= factors[z];
}

__attribute__((target("avx2"))) void SwapRunAvx2(Complex* x, Complex* y,
                                                 uint64_t n) {
  double* xd = reinterpret_cast<double*>(x);
  double* yd = reinterpret_cast<double*>(y);
  uint64_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d a = _mm256_loadu_pd(xd + 2 * k);
    const __m256d b = _mm256_loadu_pd(yd + 2 * k);
    _mm256_storeu_pd(xd + 2 * k, b);
    _mm256_storeu_pd(yd + 2 * k, a);
  }
  if (k < n) std::swap(x[k], y[k]);
}

#else  // !QDM_SIMD_HAVE_AVX2

// DetectedTier() never reports kAvx2 on these builds, so the *Avx2 symbols
// are unreachable at runtime; forwarding to the scalar reference keeps every
// caller link-clean without further #ifdefs.
void Apply1QRangeAvx2(Complex* amp, uint64_t step, uint64_t control_mask,
                      uint64_t begin, uint64_t end, const Complex* u) {
  Apply1QRangeScalar(amp, step, control_mask, begin, end, u);
}

void DiagonalPhaseRunAvx2(Complex* amp, const double* phases, double scale,
                          uint64_t n) {
  DiagonalPhaseRunScalar(amp, phases, scale, n);
}

void PhasorRunAvx2(Complex* amp, const Complex* factors, uint64_t n) {
  PhasorRunScalar(amp, factors, n);
}

void SwapRunAvx2(Complex* x, Complex* y, uint64_t n) {
  SwapRunScalar(x, y, n);
}

#endif  // QDM_SIMD_HAVE_AVX2

}  // namespace simd
}  // namespace sim
}  // namespace qdm
