#ifndef QDM_SIM_STATEVECTOR_H_
#define QDM_SIM_STATEVECTOR_H_

#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/linalg/matrix.h"
#include "qdm/sim/simd.h"

namespace qdm {
namespace sim {

/// Execution configuration for the Statevector gate kernels.
///
/// Zero-means-default convention (same as anneal::SolverOptions): each knob
/// treats 0 as "defer to the next level". Resolution order is instance
/// config -> process-wide default (Statevector::SetDefaultExecutionConfig)
/// -> built-in default, so library paths that construct state vectors
/// internally (ApplyCircuit, the trajectory simulator, the QAOA/VQE/Grover
/// bridges in algo/) pick up a process-wide setting with no call-site churn.
///
///   num_threads    0 = defer; resolved default is
///                  ThreadPool::DefaultNumThreads(). 1 = strictly serial.
///   serial_cutoff  0 = defer; resolved default is
///                  Statevector::kDefaultSerialCutoff. States whose
///                  dimension() is below the resolved cutoff always run the
///                  serial kernels, so small states pay no fan-out overhead.
///   simd           kAuto (0) = defer; resolved default is the best tier
///                  the build + CPU support (simd::DetectedTier, which also
///                  honors the QDM_SIMD=off environment override). kScalar
///                  forces the reference scalar inner loops; kSimd requests
///                  vector inner loops and falls back to scalar when no
///                  tier is available. Orthogonal to num_threads: serial
///                  and chunk-parallel kernels both dispatch their inner
///                  runs through the resolved tier.
///
/// Determinism: the parallel kernels partition the amplitude array into
/// contiguous chunks of independent elementwise/pairwise updates — no
/// reductions are reordered — so results are bit-identical to the serial
/// kernels at every thread count (the kernel-level extension of the batch
/// layer's `seed + index` guarantee; see docs/batching.md). The SIMD tiers
/// preserve the same contract: every vector lane performs the exact scalar
/// multiply/add sequence (unfused, unreassociated), so amplitudes are
/// bit-identical across {scalar, avx2} x any thread count.
struct ExecutionConfig {
  int num_threads = 0;
  uint64_t serial_cutoff = 0;
  SimdMode simd = SimdMode::kAuto;
};

/// Dense state-vector simulator state over `num_qubits` qubits.
///
/// Convention: qubit q is bit q (least-significant = qubit 0) of the
/// basis-state index, so |q1 q0> = |10> is index 2.
///
/// This is the gate-based "quantum computer" substrate of the toolkit (the
/// paper's surveyed works run on IBM-Q class machines; all circuits in scope
/// fit in <= ~24 qubits, where exact simulation is both feasible and the
/// strongest possible verification of the algorithmic claims).
class Statevector {
 public:
  /// Initializes to |0...0>.
  explicit Statevector(int num_qubits);

  /// Takes ownership of explicit amplitudes (length must be a power of two;
  /// the vector is normalized if `normalize` is set).
  static Statevector FromAmplitudes(std::vector<Complex> amplitudes,
                                    bool normalize = false);

  // -- Kernel execution config ------------------------------------------------

  /// Resolved serial_cutoff when neither the instance nor the process-wide
  /// default sets one: states below 2^16 amplitudes stay serial.
  static constexpr uint64_t kDefaultSerialCutoff = uint64_t{1} << 16;

  /// Process-wide default ExecutionConfig, consulted by every Statevector
  /// whose own config leaves a knob at 0. Thread-safe.
  static void SetDefaultExecutionConfig(const ExecutionConfig& config);
  static ExecutionConfig DefaultExecutionConfig();

  /// Per-instance override; knobs left at 0 defer to the process default.
  void set_execution_config(const ExecutionConfig& config) {
    execution_config_ = config;
  }
  const ExecutionConfig& execution_config() const { return execution_config_; }

  /// The thread count / cutoff the kernels will actually use after the
  /// instance -> process default -> built-in resolution.
  int ResolvedNumThreads() const;
  uint64_t ResolvedSerialCutoff() const;

  /// The SIMD tier the kernel inner loops will actually dispatch to after
  /// the instance -> process default -> detection resolution: Tier::kScalar
  /// when the resolved mode is SimdMode::kScalar (or nothing better is
  /// available), simd::DetectedTier() otherwise.
  simd::Tier ResolvedSimdTier() const;

  int num_qubits() const { return num_qubits_; }
  size_t dimension() const { return amplitudes_.size(); }
  const std::vector<Complex>& amplitudes() const { return amplitudes_; }
  std::vector<Complex>& mutable_amplitudes() { return amplitudes_; }
  Complex amplitude(uint64_t basis_state) const {
    return amplitudes_[basis_state];
  }

  // -- Gate application -------------------------------------------------------

  /// Applies an arbitrary 2x2 unitary to qubit `q`.
  void Apply1Q(const linalg::Matrix& u, int q);

  /// Applies `u` to `target` on the subspace where all `controls` are |1>.
  void ApplyControlled1Q(const std::vector<int>& controls, int target,
                         const linalg::Matrix& u);

  /// Exchanges qubits a and b.
  void ApplySwap(int a, int b);

  /// Controlled swap.
  void ApplyControlledSwap(int control, int a, int b);

  /// Multiplies amplitude of basis state z by exp(i * phase(z)). This is the
  /// fast path for diagonal operators (QAOA cost layers, Grover oracles).
  /// When the execution config enables parallel kernels, `phase` is invoked
  /// concurrently from pool workers and must be safe to call concurrently
  /// for distinct z and must not throw (the toolkit is exception-free; see
  /// qdm::ThreadPool) — pure functions satisfy both.
  void ApplyDiagonalPhase(const std::function<double(uint64_t)>& phase);

  /// Same operation from a precomputed diagonal (length must equal
  /// dimension(); checked): multiplies amplitude of basis state z by
  /// exp(i * scale * phases[z]). Hot path for loops that reapply one
  /// diagonal with varying prefactors (QAOA layers, Grover oracle sweeps) —
  /// no per-element std::function indirection.
  void ApplyDiagonalPhase(const std::vector<double>& phases,
                          double scale = 1.0);

  /// Same operation from precomputed unit phasors (length must equal
  /// dimension(); checked): multiplies amplitude z by factors[z]. With
  /// factors[z] = std::polar(1.0, scale * phases[z]) the result is
  /// bit-identical to ApplyDiagonalPhase(phases, scale) without its 2^n
  /// polar() evaluations — for loops that revisit a few scales of one
  /// diagonal (the QAOA objective, see algo::QaoaEvaluator).
  void ApplyPhasors(const std::vector<Complex>& factors);

  /// Applies one circuit gate / a whole circuit (circuit must be fully bound).
  void ApplyGate(const circuit::Gate& gate);
  void ApplyCircuit(const circuit::Circuit& c);

  // -- Measurement and readout ------------------------------------------------

  /// P(qubit q measures 1).
  double ProbabilityOfOne(int q) const;

  /// Per-basis-state probabilities (|amp|^2).
  std::vector<double> Probabilities() const;

  /// Projective measurement of one qubit; collapses the state. Returns 0/1.
  int MeasureQubit(int q, Rng* rng);

  /// Measures all qubits; collapses to a basis state and returns its index.
  uint64_t MeasureAll(Rng* rng);

  /// Samples a basis state WITHOUT collapsing (repeatable readout).
  uint64_t SampleBasisState(Rng* rng) const;

  /// Draws `shots` samples; returns counts per basis state.
  std::map<uint64_t, int> Sample(int shots, Rng* rng) const;

  // -- Linear-algebra utilities -----------------------------------------------

  /// <z|H|z> expectation of a diagonal operator given its diagonal (length ==
  /// dimension()).
  double ExpectationDiagonal(const std::vector<double>& diagonal) const;

  Complex InnerProduct(const Statevector& other) const;

  /// |<this|other>|^2.
  double FidelityWith(const Statevector& other) const;

  double NormSquared() const;
  void Normalize();

  /// Debug listing of non-negligible amplitudes.
  std::string ToString(double cutoff = 1e-9) const;

 private:
  Statevector() : num_qubits_(0) {}

  /// True when a kernel should take its serial branch: resolved thread
  /// count 1, or dimension() below the resolved serial cutoff. Each kernel
  /// keeps the pre-parallel loop verbatim behind this check (the compiler
  /// vectorizes that form best) and pairs it with a chunked parallel branch
  /// proven bit-identical by statevector_parallel_test.
  bool UseSerialKernel() const;

  /// True when the kernel inner loops should dispatch to the vector run
  /// primitives (sim::simd) instead of the scalar reference loops.
  bool UseSimdKernels() const;

  /// Shared body of Apply1Q and ApplyControlled1Q (control_mask 0): one
  /// range-kernel call per gate on the serial SIMD path and one per chunk on
  /// the parallel path; the serial scalar path keeps the reference loops.
  void ApplyPairKernel(uint64_t control_mask, int target,
                       const linalg::Matrix& u);

  /// Kernel fan-out seam: runs body(begin, end) over a partition of [0, n)
  /// into contiguous chunks dispatched over the process-wide
  /// ThreadPool::Shared() pool (caller-participating, so nested use cannot
  /// deadlock). Chunks never overlap and their boundaries depend only on
  /// (n, resolved threads), so kernels whose per-element updates are
  /// independent stay bit-identical at every thread count.
  void RunChunksParallel(
      uint64_t n, const std::function<void(uint64_t, uint64_t)>& body) const;

  int num_qubits_;
  std::vector<Complex> amplitudes_;
  ExecutionConfig execution_config_;
};

/// Runs `c` on |0...0> and returns the final state.
Statevector RunCircuit(const circuit::Circuit& c);

/// Runs `c` on |0...0> and samples `shots` measurement outcomes.
std::map<uint64_t, int> SampleCircuit(const circuit::Circuit& c, int shots,
                                      Rng* rng);

}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_STATEVECTOR_H_
