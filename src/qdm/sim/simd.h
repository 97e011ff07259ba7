#ifndef QDM_SIM_SIMD_H_
#define QDM_SIM_SIMD_H_

#include <cstdint>

#include "qdm/linalg/matrix.h"

namespace qdm {
namespace sim {

/// Which inner-loop tier the Statevector gate kernels run
/// (ExecutionConfig::simd). Follows the toolkit-wide zero-means-default
/// convention: kAuto defers instance config -> process-wide default ->
/// build/environment/CPU detection (simd::DetectedTier).
enum class SimdMode {
  kAuto = 0,    ///< Defer to the next resolution level.
  kScalar = 1,  ///< Force the scalar inner loops (the reference kernels).
  kSimd = 2,    ///< Use the best vector tier the build + CPU support; falls
                ///< back to scalar when none is available.
};

namespace simd {

/// Instruction tiers the inner-loop primitives are compiled for.
enum class Tier {
  kScalar,  ///< Portable std::complex loops (always available).
  kAvx2,    ///< 256-bit AVX2 lanes, two complex amplitudes per operation.
};

/// True when the vector kernels are compiled into this build at all
/// (QDM_ENABLE_SIMD=ON on an x86-64 GCC/Clang toolchain).
bool CompiledWithSimd();

/// The tier auto-dispatch resolves to on this machine: kAvx2 when the build
/// compiled it, the CPU reports AVX2+FMA, and the QDM_SIMD environment
/// variable is not "off"/"0"/"false"; kScalar otherwise. Detected once on
/// first call and cached for the process lifetime.
Tier DetectedTier();

/// Human-readable tier name ("scalar", "avx2") for logs and benches.
const char* TierName(Tier tier);

// ---------------------------------------------------------------------------
// Inner-loop run primitives.
//
// Each primitive has a *Scalar variant — the bit-identity reference,
// performing exactly the std::complex arithmetic of the serial kernels —
// and an *Avx2 variant that performs the SAME IEEE-754 operation sequence
// per amplitude (unfused multiplies/adds in scalar order, two interleaved
// re/im complex lanes per 256-bit op), so results are bit-identical to the
// scalar loops, not merely close. Builds without AVX2 support compile the
// *Avx2 symbols as forwards to the scalar variant; they are unreachable
// then because DetectedTier() reports kScalar.
// ---------------------------------------------------------------------------

/// One-qubit gate u = {u00, u01, u10, u11} (row-major) on the target bit
/// `step` = 2^target, over the compact pair range [begin, end): pair p is the
/// amplitude pair (i, i + step) whose index i is p with a zero bit inserted
/// at the target. Pairs whose i lacks any bit of `control_mask` (the
/// controls; never the target bit) are left untouched:
///   lo <- u00*lo + u01*hi;  hi <- u10*lo + u11*hi.
/// The kernel walks the groups itself (a leading partial group, full
/// groups, a trailing partial group), so a serial gate is one call over
/// [0, dimension / 2) and a chunked gate one call per chunk. On target 0 the
/// pairs are adjacent in memory and run as interleaved pairs, which keeps
/// full vector width where the contiguous runs would have length 1.
void Apply1QRangeScalar(Complex* amp, uint64_t step, uint64_t control_mask,
                        uint64_t begin, uint64_t end, const Complex* u);
void Apply1QRangeAvx2(Complex* amp, uint64_t step, uint64_t control_mask,
                      uint64_t begin, uint64_t end, const Complex* u);

/// Diagonal phase over `n` contiguous amplitudes:
///   amp[z] <- amp[z] * exp(i * scale * phases[z]).
/// The exp/polar evaluation stays scalar libm in BOTH variants (vector math
/// libraries round differently); the vector tier batches the complex
/// multiplies, which is what keeps it bit-identical to the scalar loop.
void DiagonalPhaseRunScalar(Complex* amp, const double* phases, double scale,
                            uint64_t n);
void DiagonalPhaseRunAvx2(Complex* amp, const double* phases, double scale,
                          uint64_t n);

/// Precomputed diagonal over `n` contiguous amplitudes:
///   amp[z] <- amp[z] * factors[z].
/// With factors[z] = std::polar(1.0, scale * phases[z]) this is the
/// DiagonalPhaseRun* product bit for bit (the vector tier runs the same
/// multiply/addsub sequence), minus the polar() evaluations, for callers
/// that reapply one diagonal at a few recurring scales.
void PhasorRunScalar(Complex* amp, const Complex* factors, uint64_t n);
void PhasorRunAvx2(Complex* amp, const Complex* factors, uint64_t n);

/// Exchanges `n` contiguous amplitudes between the disjoint runs x and y.
void SwapRunScalar(Complex* x, Complex* y, uint64_t n);
void SwapRunAvx2(Complex* x, Complex* y, uint64_t n);

}  // namespace simd
}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_SIMD_H_
