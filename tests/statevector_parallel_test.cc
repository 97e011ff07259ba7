// Serial/parallel/SIMD parity tests for the Statevector gate kernels: every
// kernel must produce BIT-IDENTICAL amplitudes at any thread count AND under
// any SIMD tier (the kernel-level extension of the batch layer's determinism
// guarantee). The kernels are pure elementwise/pairwise updates over
// disjoint chunks whose vector lanes perform the exact scalar operation
// sequence, so parity here is exact equality (memcmp), not a tolerance. The
// reference in every check is the serial (1-thread) scalar kernel; the
// matrix sweeps {scalar, simd} x {1, 2, 8} threads against it. On builds or
// machines without a vector tier, SimdMode::kSimd degrades to scalar and
// the matrix still runs (trivially green on the simd axis).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::SingleQubitMatrix;

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr SimdMode kSimdModes[] = {SimdMode::kScalar, SimdMode::kSimd};

/// serial_cutoff 1: dimension() is never below it, so every kernel call
/// takes the parallel path even on 1-qubit states.
constexpr uint64_t kAlwaysParallel = 1;

/// The parity reference: strictly serial scalar kernels.
ExecutionConfig SerialConfig() {
  return ExecutionConfig{1, kAlwaysParallel, SimdMode::kScalar};
}

ExecutionConfig ParallelConfig(int threads,
                               SimdMode simd = SimdMode::kScalar) {
  return ExecutionConfig{threads, kAlwaysParallel, simd};
}

const char* SimdModeName(SimdMode mode) {
  return mode == SimdMode::kSimd ? "simd" : "scalar";
}

/// Sets the process-wide default config for one scope, restoring the
/// previous default on destruction.
class ScopedDefaultExecutionConfig {
 public:
  explicit ScopedDefaultExecutionConfig(const ExecutionConfig& config)
      : previous_(Statevector::DefaultExecutionConfig()) {
    Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedDefaultExecutionConfig() {
    Statevector::SetDefaultExecutionConfig(previous_);
  }

 private:
  ExecutionConfig previous_;
};

Statevector RandomState(int num_qubits, Rng* rng) {
  std::vector<Complex> amps(size_t{1} << num_qubits);
  for (Complex& a : amps) a = Complex(rng->Uniform(-1, 1), rng->Uniform(-1, 1));
  return Statevector::FromAmplitudes(std::move(amps), /*normalize=*/true);
}

void ExpectBitIdentical(const Statevector& serial, const Statevector& parallel,
                        const std::string& context) {
  ASSERT_EQ(serial.dimension(), parallel.dimension()) << context;
  for (size_t z = 0; z < serial.dimension(); ++z) {
    const Complex a = serial.amplitude(z);
    const Complex b = parallel.amplitude(z);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Complex)), 0)
        << context << ": amplitudes differ at z=" << z << " (" << a.real()
        << "," << a.imag() << ") vs (" << b.real() << "," << b.imag() << ")";
  }
}

/// Applies `kernel` to copies of the same random state under the serial
/// scalar reference config and under the full {scalar, simd} x {1, 2, 8}
/// thread matrix, asserting exact equality against the reference.
void CheckKernelParity(int num_qubits,
                       const std::function<void(Statevector*)>& kernel,
                       const std::string& context) {
  Rng rng(0xC0FFEE + num_qubits);
  const Statevector initial = RandomState(num_qubits, &rng);

  Statevector serial = initial;
  serial.set_execution_config(SerialConfig());
  kernel(&serial);

  for (SimdMode mode : kSimdModes) {
    for (int threads : kThreadCounts) {
      Statevector parallel = initial;
      parallel.set_execution_config(ParallelConfig(threads, mode));
      kernel(&parallel);
      ExpectBitIdentical(serial, parallel,
                         context + " @ " + std::to_string(threads) +
                             " threads / " + SimdModeName(mode));
    }
  }
}

TEST(StatevectorParallelTest, Apply1QParityEveryTargetQubit) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.3, 1.1});
  for (int n = 1; n <= 12; ++n) {
    for (int q = 0; q < n; ++q) {  // Includes target = highest qubit (n-1).
      CheckKernelParity(
          n, [&](Statevector* sv) { sv->Apply1Q(u, q); },
          "Apply1Q n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
  }
}

TEST(StatevectorParallelTest, ApplyControlled1QParityIncludingMultiControl) {
  const linalg::Matrix x = SingleQubitMatrix(GateKind::kX, {});
  const linalg::Matrix rz = SingleQubitMatrix(GateKind::kRZ, {0.41});
  for (int n = 2; n <= 12; ++n) {
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplyControlled1Q({0}, n - 1, x); },
        "CX control=0 target=highest n=" + std::to_string(n));
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplyControlled1Q({n - 1}, 0, rz); },
        "CRZ control=highest target=0 n=" + std::to_string(n));
    if (n >= 4) {
      CheckKernelParity(
          n,
          [&](Statevector* sv) {
            sv->ApplyControlled1Q({0, 1, 2}, n - 1, x);  // Multi-control.
          },
          "CCCX n=" + std::to_string(n));
    }
  }
}

TEST(StatevectorParallelTest, ApplySwapParity) {
  for (int n = 2; n <= 12; ++n) {
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplySwap(0, n - 1); },
        "Swap(0, highest) n=" + std::to_string(n));
    if (n >= 4) {
      CheckKernelParity(
          n, [&](Statevector* sv) { sv->ApplySwap(1, n / 2); },
          "Swap(1, mid) n=" + std::to_string(n));
    }
  }
}

TEST(StatevectorParallelTest, ApplyControlledSwapParity) {
  for (int n = 3; n <= 12; ++n) {
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplyControlledSwap(0, 1, n - 1); },
        "CSwap(0,1,highest) n=" + std::to_string(n));
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplyControlledSwap(n - 1, 0, 1); },
        "CSwap(highest,0,1) n=" + std::to_string(n));
  }
}

TEST(StatevectorParallelTest, ApplyDiagonalPhaseCallableParity) {
  for (int n = 1; n <= 12; ++n) {
    CheckKernelParity(
        n,
        [&](Statevector* sv) {
          sv->ApplyDiagonalPhase(
              [](uint64_t z) { return 0.013 * static_cast<double>(z % 101); });
        },
        "DiagonalPhase(callable) n=" + std::to_string(n));
  }
}

TEST(StatevectorParallelTest, ApplyDiagonalPhasePrecomputedParity) {
  Rng rng(99);
  for (int n = 1; n <= 12; ++n) {
    std::vector<double> phases(size_t{1} << n);
    for (double& p : phases) p = rng.Uniform(-3.0, 3.0);
    CheckKernelParity(
        n, [&](Statevector* sv) { sv->ApplyDiagonalPhase(phases, -0.7); },
        "DiagonalPhase(precomputed) n=" + std::to_string(n));
  }
}

// Random circuits over every gate kind ApplyGate dispatches, 1-12 qubits:
// the whole-circuit state must match bit-for-bit at every thread count.
TEST(StatevectorParallelTest, RandomCircuitParity) {
  for (int n = 1; n <= 12; ++n) {
    Rng rng(7000 + n);
    Circuit c(n);
    for (int g = 0; g < 40; ++g) {
      const int q = static_cast<int>(rng.UniformInt(0, n - 1));
      const double theta = rng.Uniform(-M_PI, M_PI);
      switch (rng.UniformInt(0, n >= 3 ? 8 : (n >= 2 ? 6 : 2))) {
        case 0: c.H(q); break;
        case 1: c.U3(q, theta, 0.2, -0.9); break;
        case 2: c.RX(q, theta); break;
        case 3: c.CX(q, (q + 1) % n); break;
        case 4: c.Swap(q, (q + 1) % n); break;
        case 5: c.CPhase(q, (q + 1) % n, theta); break;
        case 6: c.RZZ(q, (q + 1) % n, theta); break;
        case 7: c.CCX(q, (q + 1) % n, (q + 2) % n); break;
        case 8: c.CSwap(q, (q + 1) % n, (q + 2) % n); break;
      }
    }
    Statevector serial(n);
    serial.set_execution_config(SerialConfig());
    serial.ApplyCircuit(c);
    for (SimdMode mode : kSimdModes) {
      for (int threads : kThreadCounts) {
        Statevector parallel(n);
        parallel.set_execution_config(ParallelConfig(threads, mode));
        parallel.ApplyCircuit(c);
        ExpectBitIdentical(serial, parallel,
                           "random circuit n=" + std::to_string(n) + " @ " +
                               std::to_string(threads) + " threads / " +
                               SimdModeName(mode));
      }
    }
  }
}

// States below the serial cutoff take the serial path even with many
// threads configured — and still match, trivially, because it IS the serial
// code. This pins the cutoff semantics: dimension() < cutoff stays serial.
TEST(StatevectorParallelTest, BelowCutoffStatesRunSerialAndMatch) {
  const linalg::Matrix h = SingleQubitMatrix(GateKind::kH, {});
  for (int n = 1; n <= 8; ++n) {
    Rng rng(31 + n);
    const Statevector initial = RandomState(n, &rng);

    Statevector serial = initial;
    serial.set_execution_config(SerialConfig());
    serial.Apply1Q(h, n - 1);

    Statevector below_cutoff = initial;
    // 2^n < 2^20 for every n here, so this resolves to the serial path.
    below_cutoff.set_execution_config(ExecutionConfig{8, uint64_t{1} << 20});
    below_cutoff.Apply1Q(h, n - 1);
    ExpectBitIdentical(serial, below_cutoff,
                       "below-cutoff n=" + std::to_string(n));
  }
}

TEST(StatevectorParallelTest, ConfigResolutionInstanceThenGlobalThenBuiltIn) {
  Statevector sv(2);
  // Built-in defaults.
  EXPECT_EQ(sv.ResolvedSerialCutoff(), Statevector::kDefaultSerialCutoff);
  EXPECT_GE(sv.ResolvedNumThreads(), 1);
  {
    ScopedDefaultExecutionConfig scoped(ExecutionConfig{3, 128});
    // Instance knobs at 0 defer to the process default.
    EXPECT_EQ(sv.ResolvedNumThreads(), 3);
    EXPECT_EQ(sv.ResolvedSerialCutoff(), 128u);
    // Nonzero instance knobs win over the process default.
    sv.set_execution_config(ExecutionConfig{2, 64});
    EXPECT_EQ(sv.ResolvedNumThreads(), 2);
    EXPECT_EQ(sv.ResolvedSerialCutoff(), 64u);
    // Partial instance config: only the set knob overrides.
    sv.set_execution_config(ExecutionConfig{5, 0});
    EXPECT_EQ(sv.ResolvedNumThreads(), 5);
    EXPECT_EQ(sv.ResolvedSerialCutoff(), 128u);
  }
  // The scoped default was restored.
  sv.set_execution_config(ExecutionConfig{});
  EXPECT_EQ(sv.ResolvedSerialCutoff(), Statevector::kDefaultSerialCutoff);
}

// Paths that construct state vectors internally (RunCircuit here, and the
// algo/ bridges through it) pick up the process-wide default config.
TEST(StatevectorParallelTest, GlobalDefaultConfigReachesInternalStates) {
  Circuit c(5);
  c.H(0);
  for (int q = 0; q + 1 < 5; ++q) c.CX(q, q + 1);

  Statevector serial(5);
  serial.set_execution_config(SerialConfig());
  serial.ApplyCircuit(c);

  ScopedDefaultExecutionConfig scoped(ParallelConfig(8));
  const Statevector via_global = RunCircuit(c);
  ExpectBitIdentical(serial, via_global, "RunCircuit under global config");
}

// Unaligned / odd-step coverage for the SIMD inner runs: q = 0 (interleaved
// pairs, no contiguous runs), q = 1 (runs exactly one vector width), and
// q = n-1 (one group that every chunk slices), swept with thread counts
// that do NOT divide the pair range evenly, so chunks start and end on
// leading/trailing partial runs shorter than one vector width.
TEST(StatevectorParallelTest, SimdPartialRunsAndOddChunkBoundaries) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.3, 1.1});
  const linalg::Matrix x = SingleQubitMatrix(GateKind::kX, {});
  for (int n : {3, 5, 9}) {
    for (int q : {0, 1, n - 1}) {
      CheckKernelParity(
          n, [&](Statevector* sv) { sv->Apply1Q(u, q); },
          "odd-step Apply1Q n=" + std::to_string(n) + " q=" +
              std::to_string(q));
      for (int threads : {3, 5, 7}) {
        Rng rng(0xABC + n * 16 + q);
        const Statevector initial = RandomState(n, &rng);
        Statevector reference = initial;
        reference.set_execution_config(SerialConfig());
        reference.Apply1Q(u, q);
        for (SimdMode mode : kSimdModes) {
          Statevector sv = initial;
          sv.set_execution_config(ParallelConfig(threads, mode));
          sv.Apply1Q(u, q);
          ExpectBitIdentical(reference, sv,
                             "odd-chunk Apply1Q n=" + std::to_string(n) +
                                 " q=" + std::to_string(q) + " @ " +
                                 std::to_string(threads) + " threads / " +
                                 SimdModeName(mode));
        }
      }
    }
    // Controls straddling the target exercise the above-target group skip
    // plus the below-target per-element mask on the same gate.
    CheckKernelParity(
        n,
        [&](Statevector* sv) { sv->ApplyControlled1Q({0, n - 1}, n / 2, x); },
        "straddling controls n=" + std::to_string(n));
    if (n >= 3) {
      CheckKernelParity(
          n, [&](Statevector* sv) { sv->ApplySwap(1, n - 1); },
          "odd-step Swap(1, highest) n=" + std::to_string(n));
    }
  }
}

/// The control sets the range kernel distinguishes for target q on n
/// qubits: none, one below the target, one above, and both at once.
std::vector<std::vector<int>> ControlSets(int n, int q) {
  std::vector<std::vector<int>> sets = {{}};
  if (q > 0) sets.push_back({0});
  if (q < n - 1) sets.push_back({n - 1});
  if (q > 0 && q < n - 1) sets.push_back({0, n - 1});
  return sets;
}

/// Apply1Q for an empty control set, ApplyControlled1Q otherwise.
void ApplyMaybeControlled(Statevector* sv, const std::vector<int>& controls,
                          int q, const linalg::Matrix& u) {
  if (controls.empty()) {
    sv->Apply1Q(u, q);
  } else {
    sv->ApplyControlled1Q(controls, q, u);
  }
}

std::string GateContext(int n, int q, const std::vector<int>& controls) {
  std::string context =
      "n=" + std::to_string(n) + " q=" + std::to_string(q) + " controls={";
  for (int c : controls) context += std::to_string(c) + ",";
  return context + "}";
}

// The serial SIMD branch makes one range-kernel call per gate, walking
// every group itself; it must equal the serial scalar reference loops for
// every target, with and without controls on either side of the target.
TEST(StatevectorParallelTest, SerialSimdRangeKernelMatchesScalarEveryTarget) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.3, 1.1});
  for (int n = 1; n <= 10; ++n) {
    Rng rng(0x5EED + n);
    const Statevector initial = RandomState(n, &rng);
    for (int q = 0; q < n; ++q) {
      for (const std::vector<int>& controls : ControlSets(n, q)) {
        Statevector scalar = initial;
        scalar.set_execution_config({1, 0, SimdMode::kScalar});
        Statevector simd = initial;
        simd.set_execution_config({1, 0, SimdMode::kSimd});
        ApplyMaybeControlled(&scalar, controls, q, u);
        ApplyMaybeControlled(&simd, controls, q, u);
        ExpectBitIdentical(scalar, simd,
                           "serial simd " + GateContext(n, q, controls));
      }
    }
  }
}

// The parallel branch makes one range-kernel call per chunk. Thread counts
// that do not divide the pair range start and end chunks inside groups, so
// each call walks a leading and a trailing partial group.
TEST(StatevectorParallelTest, ParallelRangeKernelMatchesOnOddChunkSplits) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {1.3, -0.4, 0.6});
  for (int n = 1; n <= 10; ++n) {
    Rng rng(0xD1CE + n);
    const Statevector initial = RandomState(n, &rng);
    for (int q = 0; q < n; ++q) {
      for (const std::vector<int>& controls : ControlSets(n, q)) {
        Statevector reference = initial;
        reference.set_execution_config(SerialConfig());
        ApplyMaybeControlled(&reference, controls, q, u);
        for (int threads : {3, 5, 7}) {
          for (SimdMode mode : kSimdModes) {
            Statevector sv = initial;
            sv.set_execution_config(ParallelConfig(threads, mode));
            ApplyMaybeControlled(&sv, controls, q, u);
            ExpectBitIdentical(reference, sv,
                               "odd chunks " + GateContext(n, q, controls) +
                                   " @ " + std::to_string(threads) +
                                   " threads / " + SimdModeName(mode));
          }
        }
      }
    }
  }
}

// ExecutionConfig::simd resolves instance -> process default -> detection,
// and SimdMode::kScalar always lands on the scalar tier.
TEST(StatevectorParallelTest, SimdResolutionInstanceThenGlobalThenDetected) {
  Statevector sv(2);
  // Built-in default (kAuto all the way down) = whatever the build+CPU+env
  // detection reports.
  EXPECT_EQ(sv.ResolvedSimdTier(), simd::DetectedTier());
  sv.set_execution_config(ExecutionConfig{1, 1, SimdMode::kScalar});
  EXPECT_EQ(sv.ResolvedSimdTier(), simd::Tier::kScalar);
  sv.set_execution_config(ExecutionConfig{1, 1, SimdMode::kSimd});
  EXPECT_EQ(sv.ResolvedSimdTier(), simd::DetectedTier());
  sv.set_execution_config(ExecutionConfig{});
  {
    ScopedDefaultExecutionConfig scoped(
        ExecutionConfig{0, 0, SimdMode::kScalar});
    EXPECT_EQ(sv.ResolvedSimdTier(), simd::Tier::kScalar);
    // A nonzero instance knob wins over the process default.
    sv.set_execution_config(ExecutionConfig{0, 0, SimdMode::kSimd});
    EXPECT_EQ(sv.ResolvedSimdTier(), simd::DetectedTier());
    sv.set_execution_config(ExecutionConfig{});
  }
  EXPECT_EQ(sv.ResolvedSimdTier(), simd::DetectedTier());
  // Tier names are stable strings (the perf-gate CI step logs them).
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  if (!simd::CompiledWithSimd()) {
    EXPECT_EQ(simd::DetectedTier(), simd::Tier::kScalar);
  }
}

TEST(StatevectorParallelDeathTest, DiagonalLengthMismatchIsChecked) {
  Statevector sv(3);  // dimension 8.
  const std::vector<double> wrong_length(4, 0.1);
  EXPECT_DEATH(sv.ApplyDiagonalPhase(wrong_length, 1.0),
               "diagonal length 4 must equal the state dimension 8");
}

}  // namespace
}  // namespace sim
}  // namespace qdm
