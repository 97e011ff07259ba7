#include "qdm/sim/statevector.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"
#include "qdm/sim/simd.h"

namespace qdm {
namespace sim {

namespace {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

int Log2(size_t n) {
  int k = 0;
  while ((size_t{1} << k) < n) ++k;
  return k;
}

// Process-wide default ExecutionConfig, stored as independent atomics so the
// per-gate resolution path is lock-free (a mutex here would serialize every
// gate call of every thread in the process). The knobs are set/read
// independently, so a reader racing a concurrent SetDefaultExecutionConfig
// can observe one old and one new knob — acceptable for a tuning knob that
// callers set at startup or around a test scope, never mid-kernel.
std::atomic<int> g_default_num_threads{0};
std::atomic<uint64_t> g_default_serial_cutoff{0};
std::atomic<int> g_default_simd_mode{0};

// Re-inserts a zero bit at position `pos` into the compact index `p`: bits
// [0, pos) map through unchanged, bits >= pos shift up by one. Composing
// ascending positions maps a compact pair index onto the basis index with
// those bits held at zero — the swap kernels enumerate each amplitude pair
// exactly once this way, in runs of 2^lowest_position contiguous indices.
inline uint64_t InsertZeroBit(uint64_t p, int pos) {
  const uint64_t low = p & ((uint64_t{1} << pos) - 1);
  return ((p >> pos) << (pos + 1)) | low;
}

// Serial halves of the pair kernels, hoisted into standalone functions so
// their codegen stays isolated from the lambda-bearing parallel branches:
// this member/reference-indexed two-level group loop is the form the
// compiler SLP-vectorizes (pointer or lambda rewrites of the same loop
// measure ~1.6x slower), and it is the pre-parallel kernel verbatim.
void SerialApply1Q(std::vector<Complex>& amplitudes, size_t step, Complex u00,
                   Complex u01, Complex u10, Complex u11) {
  for (size_t group = 0; group < amplitudes.size(); group += 2 * step) {
    for (size_t i = group; i < group + step; ++i) {
      const Complex a0 = amplitudes[i];
      const Complex a1 = amplitudes[i + step];
      amplitudes[i] = u00 * a0 + u01 * a1;
      amplitudes[i + step] = u10 * a0 + u11 * a1;
    }
  }
}

void SerialApplyControlled1Q(std::vector<Complex>& amplitudes, size_t step,
                             uint64_t control_mask, Complex u00, Complex u01,
                             Complex u10, Complex u11) {
  for (size_t group = 0; group < amplitudes.size(); group += 2 * step) {
    for (size_t i = group; i < group + step; ++i) {
      if ((i & control_mask) != control_mask) continue;
      const Complex a0 = amplitudes[i];
      const Complex a1 = amplitudes[i + step];
      amplitudes[i] = u00 * a0 + u01 * a1;
      amplitudes[i + step] = u10 * a0 + u11 * a1;
    }
  }
}

}  // namespace

void Statevector::SetDefaultExecutionConfig(const ExecutionConfig& config) {
  g_default_num_threads.store(config.num_threads, std::memory_order_relaxed);
  g_default_serial_cutoff.store(config.serial_cutoff,
                                std::memory_order_relaxed);
  g_default_simd_mode.store(static_cast<int>(config.simd),
                            std::memory_order_relaxed);
}

ExecutionConfig Statevector::DefaultExecutionConfig() {
  return ExecutionConfig{
      g_default_num_threads.load(std::memory_order_relaxed),
      g_default_serial_cutoff.load(std::memory_order_relaxed),
      static_cast<SimdMode>(
          g_default_simd_mode.load(std::memory_order_relaxed))};
}

int Statevector::ResolvedNumThreads() const {
  int threads = execution_config_.num_threads;
  if (threads <= 0) {
    threads = g_default_num_threads.load(std::memory_order_relaxed);
  }
  if (threads <= 0) threads = ThreadPool::DefaultNumThreads();
  return threads;
}

uint64_t Statevector::ResolvedSerialCutoff() const {
  uint64_t cutoff = execution_config_.serial_cutoff;
  if (cutoff == 0) {
    cutoff = g_default_serial_cutoff.load(std::memory_order_relaxed);
  }
  if (cutoff == 0) cutoff = kDefaultSerialCutoff;
  return cutoff;
}

simd::Tier Statevector::ResolvedSimdTier() const {
  SimdMode mode = execution_config_.simd;
  if (mode == SimdMode::kAuto) {
    mode = static_cast<SimdMode>(
        g_default_simd_mode.load(std::memory_order_relaxed));
  }
  if (mode == SimdMode::kScalar) return simd::Tier::kScalar;
  // kAuto and kSimd both mean "best available": kSimd is the explicit
  // request form (tests, benches), and it still degrades to scalar when the
  // build, the CPU, or QDM_SIMD=off rules the vector tier out.
  return simd::DetectedTier();
}

bool Statevector::UseSimdKernels() const {
  return ResolvedSimdTier() != simd::Tier::kScalar;
}

bool Statevector::UseSerialKernel() const {
  return ResolvedNumThreads() <= 1 ||
         amplitudes_.size() < ResolvedSerialCutoff();
}

void Statevector::RunChunksParallel(
    uint64_t n, const std::function<void(uint64_t, uint64_t)>& body) const {
  // One contiguous chunk per participating thread, dispatched over the
  // process-wide shared pool (ThreadPool::Shared — no thread spawn per gate;
  // the caller participates, so nested use inside pool workers cannot
  // deadlock). The chunk boundaries depend only on (n, resolved threads) —
  // never on which worker picks which chunk — so any scheduling order
  // writes the exact same values.
  const int chunks =
      static_cast<int>(std::min<uint64_t>(ResolvedNumThreads(), n));
  const uint64_t chunk_size = (n + chunks - 1) / chunks;
  ThreadPool::Shared().ForEach(chunks, /*max_workers=*/0, [&](int, int c) {
    const uint64_t begin = chunk_size * static_cast<uint64_t>(c);
    const uint64_t end = std::min(begin + chunk_size, n);
    if (begin < end) body(begin, end);
  });
}

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  QDM_CHECK_GT(num_qubits, 0);
  QDM_CHECK_LE(num_qubits, 28) << "state vector would exceed memory budget";
  amplitudes_.assign(size_t{1} << num_qubits, Complex(0, 0));
  amplitudes_[0] = Complex(1, 0);
}

Statevector Statevector::FromAmplitudes(std::vector<Complex> amplitudes,
                                        bool normalize) {
  QDM_CHECK(IsPowerOfTwo(amplitudes.size()))
      << "amplitude vector length must be a power of two";
  Statevector sv;
  sv.num_qubits_ = Log2(amplitudes.size());
  QDM_CHECK_GT(sv.num_qubits_, 0);
  sv.amplitudes_ = std::move(amplitudes);
  if (normalize) sv.Normalize();
  return sv;
}

void Statevector::Apply1Q(const linalg::Matrix& u, int q) {
  QDM_CHECK(q >= 0 && q < num_qubits_);
  ApplyPairKernel(/*control_mask=*/0, q, u);
}

void Statevector::ApplyControlled1Q(const std::vector<int>& controls,
                                    int target,
                                    const linalg::Matrix& u) {
  QDM_CHECK(target >= 0 && target < num_qubits_);
  uint64_t control_mask = 0;
  for (int c : controls) {
    QDM_CHECK(c >= 0 && c < num_qubits_ && c != target);
    control_mask |= uint64_t{1} << c;
  }
  ApplyPairKernel(control_mask, target, u);
}

void Statevector::ApplyPairKernel(uint64_t control_mask, int target,
                                  const linalg::Matrix& u) {
  QDM_CHECK(u.rows() == 2 && u.cols() == 2);
  const size_t step = size_t{1} << target;
  const Complex m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
  const bool use_simd = UseSimdKernels();
  const uint64_t pairs = amplitudes_.size() >> 1;
  Complex* amp = amplitudes_.data();
  if (UseSerialKernel()) {
    if (use_simd) {
      simd::Apply1QRangeAvx2(amp, step, control_mask, 0, pairs, m);
    } else if (control_mask == 0) {
      SerialApply1Q(amplitudes_, step, m[0], m[1], m[2], m[3]);
    } else {
      SerialApplyControlled1Q(amplitudes_, step, control_mask, m[0], m[1],
                              m[2], m[3]);
    }
    return;
  }
  // Parallel branch: chunks of the pair range never share an element (each
  // pair is one (i, i + step) couple), and each chunk is one range-kernel
  // call that walks its own partial groups. Identical arithmetic per pair,
  // so bit-identical to the serial branch (statevector_parallel_test).
  RunChunksParallel(pairs, [&](uint64_t begin, uint64_t end) {
    if (use_simd) {
      simd::Apply1QRangeAvx2(amp, step, control_mask, begin, end, m);
    } else {
      simd::Apply1QRangeScalar(amp, step, control_mask, begin, end, m);
    }
  });
}

void Statevector::ApplySwap(int a, int b) {
  QDM_CHECK(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_ && a != b);
  const uint64_t bit_a = uint64_t{1} << a;
  const uint64_t bit_b = uint64_t{1} << b;
  // SIMD path: enumerate each mismatched pair once through a compact pair
  // index (both swap bits deleted), which turns the predicated full scan
  // into gap-free runs of 2^min(a,b) contiguous indices — the block at
  // base|bit_a exchanges with the disjoint block at base|bit_b via wide
  // moves. Pure data movement, so any enumeration that touches each pair
  // exactly once is bit-identical; chunks partition the pair range, so no
  // two workers touch the same pair. Runs shorter than the vector width
  // (min(a, b) = 0) stay on the scalar scan below.
  if (UseSimdKernels() && std::min(a, b) >= 1) {
    const int lo_q = std::min(a, b);
    const int hi_q = std::max(a, b);
    const uint64_t run = uint64_t{1} << lo_q;
    const uint64_t pairs = amplitudes_.size() >> 2;
    Complex* amp = amplitudes_.data();
    const auto swap_run = [&](uint64_t pair, uint64_t len) {
      const uint64_t base = InsertZeroBit(InsertZeroBit(pair, lo_q), hi_q);
      simd::SwapRunAvx2(amp + (base | bit_a), amp + (base | bit_b), len);
    };
    if (UseSerialKernel()) {
      for (uint64_t p = 0; p < pairs; p += run) swap_run(p, run);
      return;
    }
    const uint64_t low_mask = run - 1;
    RunChunksParallel(pairs, [&](uint64_t begin, uint64_t end) {
      uint64_t p = begin;
      if ((p & low_mask) != 0) {  // Leading partial run.
        const uint64_t len = std::min(run - (p & low_mask), end - p);
        swap_run(p, len);
        p += len;
      }
      for (; p + run <= end; p += run) swap_run(p, run);  // Full runs.
      if (p < end) swap_run(p, end - p);  // Trailing partial run.
    });
    return;
  }
  // Visit each mismatched pair once, keyed by the index with the a-bit set
  // and the b-bit clear. The partner j fails that predicate, so even when j
  // falls in another worker's chunk only the chunk owning i touches the
  // pair — chunks write disjoint element sets.
  if (UseSerialKernel()) {
    for (size_t i = 0; i < amplitudes_.size(); ++i) {
      if ((i & bit_a) != 0 && (i & bit_b) == 0) {
        size_t j = (i & ~bit_a) | bit_b;
        std::swap(amplitudes_[i], amplitudes_[j]);
      }
    }
    return;
  }
  Complex* amp = amplitudes_.data();
  RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      if ((i & bit_a) != 0 && (i & bit_b) == 0) {
        const uint64_t j = (i & ~bit_a) | bit_b;
        std::swap(amp[i], amp[j]);
      }
    }
  });
}

void Statevector::ApplyControlledSwap(int control, int a, int b) {
  QDM_CHECK(control != a && control != b);
  if (a == b) return;  // Degenerate swap: the scan predicate never matches.
  const uint64_t bit_c = uint64_t{1} << control;
  const uint64_t bit_a = uint64_t{1} << a;
  const uint64_t bit_b = uint64_t{1} << b;
  // SIMD path: same compact-pair-index enumeration as ApplySwap, with the
  // control bit held at 1 as well (three deleted bits), in runs of
  // 2^min(control, a, b) contiguous indices.
  const int min_q = std::min(control, std::min(a, b));
  if (UseSimdKernels() && min_q >= 1) {
    int sorted[3] = {control, a, b};
    std::sort(sorted, sorted + 3);
    const uint64_t run = uint64_t{1} << min_q;
    const uint64_t pairs = amplitudes_.size() >> 3;
    Complex* amp = amplitudes_.data();
    const auto swap_run = [&](uint64_t pair, uint64_t len) {
      const uint64_t base = InsertZeroBit(
          InsertZeroBit(InsertZeroBit(pair, sorted[0]), sorted[1]), sorted[2]);
      simd::SwapRunAvx2(amp + (base | bit_c | bit_a),
                        amp + (base | bit_c | bit_b), len);
    };
    if (UseSerialKernel()) {
      for (uint64_t p = 0; p < pairs; p += run) swap_run(p, run);
      return;
    }
    const uint64_t low_mask = run - 1;
    RunChunksParallel(pairs, [&](uint64_t begin, uint64_t end) {
      uint64_t p = begin;
      if ((p & low_mask) != 0) {  // Leading partial run.
        const uint64_t len = std::min(run - (p & low_mask), end - p);
        swap_run(p, len);
        p += len;
      }
      for (; p + run <= end; p += run) swap_run(p, run);  // Full runs.
      if (p < end) swap_run(p, end - p);  // Trailing partial run.
    });
    return;
  }
  // Same pair-ownership argument as ApplySwap: the partner j shares the
  // control bit but has the a-bit clear, so no other chunk touches it.
  if (UseSerialKernel()) {
    for (size_t i = 0; i < amplitudes_.size(); ++i) {
      if ((i & bit_c) != 0 && (i & bit_a) != 0 && (i & bit_b) == 0) {
        size_t j = (i & ~bit_a) | bit_b;
        std::swap(amplitudes_[i], amplitudes_[j]);
      }
    }
    return;
  }
  Complex* amp = amplitudes_.data();
  RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      if ((i & bit_c) != 0 && (i & bit_a) != 0 && (i & bit_b) == 0) {
        const uint64_t j = (i & ~bit_a) | bit_b;
        std::swap(amp[i], amp[j]);
      }
    }
  });
}

void Statevector::ApplyDiagonalPhase(
    const std::function<double(uint64_t)>& phase) {
  const bool use_simd = UseSimdKernels();
  Complex* amp = amplitudes_.data();
  if (use_simd) {
    // The std::function stays a scalar call per z either way; staging its
    // results through a small block buffer lets the complex multiplies run
    // on vector lanes. scale = 1.0 is exact (1.0 * t == t bitwise), so this
    // matches the direct polar(1.0, phase(z)) loop bit-for-bit.
    constexpr uint64_t kBlock = 128;
    const auto apply_block = [&](uint64_t begin, uint64_t end) {
      double staged[kBlock];
      for (uint64_t z0 = begin; z0 < end; z0 += kBlock) {
        const uint64_t len = std::min(kBlock, end - z0);
        for (uint64_t k = 0; k < len; ++k) staged[k] = phase(z0 + k);
        simd::DiagonalPhaseRunAvx2(amp + z0, staged, 1.0, len);
      }
    };
    if (UseSerialKernel()) {
      apply_block(0, amplitudes_.size());
    } else {
      RunChunksParallel(amplitudes_.size(), apply_block);
    }
    return;
  }
  if (UseSerialKernel()) {
    for (size_t z = 0; z < amplitudes_.size(); ++z) {
      amplitudes_[z] *= std::polar(1.0, phase(z));
    }
    return;
  }
  RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t z = begin; z < end; ++z) {
      amp[z] *= std::polar(1.0, phase(z));
    }
  });
}

void Statevector::ApplyDiagonalPhase(const std::vector<double>& phases,
                                     double scale) {
  QDM_CHECK_EQ(phases.size(), amplitudes_.size())
      << "ApplyDiagonalPhase: diagonal length " << phases.size()
      << " must equal the state dimension " << amplitudes_.size();
  const double* phase = phases.data();
  Complex* amp = amplitudes_.data();
  if (UseSimdKernels()) {
    if (UseSerialKernel()) {
      simd::DiagonalPhaseRunAvx2(amp, phase, scale, amplitudes_.size());
      return;
    }
    RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
      simd::DiagonalPhaseRunAvx2(amp + begin, phase + begin, scale,
                                 end - begin);
    });
    return;
  }
  if (UseSerialKernel()) {
    const size_t dim = amplitudes_.size();
    for (size_t z = 0; z < dim; ++z) {
      amp[z] *= std::polar(1.0, scale * phase[z]);
    }
    return;
  }
  RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t z = begin; z < end; ++z) {
      amp[z] *= std::polar(1.0, scale * phase[z]);
    }
  });
}

void Statevector::ApplyPhasors(const std::vector<Complex>& factors) {
  QDM_CHECK_EQ(factors.size(), amplitudes_.size())
      << "ApplyPhasors: " << factors.size()
      << " factors must equal the state dimension " << amplitudes_.size();
  const Complex* factor = factors.data();
  Complex* amp = amplitudes_.data();
  const auto run =
      UseSimdKernels() ? simd::PhasorRunAvx2 : simd::PhasorRunScalar;
  if (UseSerialKernel()) {
    run(amp, factor, amplitudes_.size());
    return;
  }
  RunChunksParallel(amplitudes_.size(), [&](uint64_t begin, uint64_t end) {
    run(amp + begin, factor + begin, end - begin);
  });
}

void Statevector::ApplyGate(const circuit::Gate& gate) {
  using circuit::GateKind;
  QDM_CHECK_EQ(gate.param_ref, -1)
      << "cannot simulate a symbolic gate; call BindParameters first";
  switch (gate.kind) {
    case GateKind::kI:
      return;
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kU3:
      Apply1Q(circuit::SingleQubitMatrix(gate.kind, gate.params),
              gate.qubits[0]);
      return;
    case GateKind::kCX:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kX, {}));
      return;
    case GateKind::kCY:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kY, {}));
      return;
    case GateKind::kCZ:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kZ, {}));
      return;
    case GateKind::kSwap:
      ApplySwap(gate.qubits[0], gate.qubits[1]);
      return;
    case GateKind::kCRZ:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kRZ, gate.params));
      return;
    case GateKind::kCPhase:
      ApplyControlled1Q(
          {gate.qubits[0]}, gate.qubits[1],
          circuit::SingleQubitMatrix(GateKind::kPhase, gate.params));
      return;
    case GateKind::kRZZ: {
      // RZZ(theta) = exp(-i theta/2 Z(x)Z): phase -theta/2 when bits equal,
      // +theta/2 when they differ.
      const uint64_t bit_a = uint64_t{1} << gate.qubits[0];
      const uint64_t bit_b = uint64_t{1} << gate.qubits[1];
      const double half = gate.params[0] / 2;
      for (size_t z = 0; z < amplitudes_.size(); ++z) {
        const bool equal = ((z & bit_a) != 0) == ((z & bit_b) != 0);
        amplitudes_[z] *= std::polar(1.0, equal ? -half : half);
      }
      return;
    }
    case GateKind::kCCX:
      ApplyControlled1Q({gate.qubits[0], gate.qubits[1]}, gate.qubits[2],
                        circuit::SingleQubitMatrix(GateKind::kX, {}));
      return;
    case GateKind::kCSwap:
      ApplyControlledSwap(gate.qubits[0], gate.qubits[1], gate.qubits[2]);
      return;
  }
  QDM_CHECK(false) << "unhandled gate kind";
}

void Statevector::ApplyCircuit(const circuit::Circuit& c) {
  QDM_CHECK_EQ(c.num_qubits(), num_qubits_);
  QDM_CHECK_EQ(c.num_parameters(), 0)
      << "cannot simulate a circuit with unbound parameters";
  for (const circuit::Gate& gate : c.gates()) ApplyGate(gate);
}

double Statevector::ProbabilityOfOne(int q) const {
  QDM_CHECK(q >= 0 && q < num_qubits_);
  const uint64_t bit = uint64_t{1} << q;
  double p = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    if (z & bit) p += std::norm(amplitudes_[z]);
  }
  return p;
}

std::vector<double> Statevector::Probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    probs[z] = std::norm(amplitudes_[z]);
  }
  return probs;
}

int Statevector::MeasureQubit(int q, Rng* rng) {
  const double p1 = ProbabilityOfOne(q);
  const int outcome = rng->Bernoulli(p1) ? 1 : 0;
  const uint64_t bit = uint64_t{1} << q;
  const double norm = std::sqrt(outcome == 1 ? p1 : 1.0 - p1);
  QDM_CHECK_GT(norm, 0.0);
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    const bool matches = ((z & bit) != 0) == (outcome == 1);
    amplitudes_[z] = matches ? amplitudes_[z] / norm : Complex(0, 0);
  }
  return outcome;
}

uint64_t Statevector::MeasureAll(Rng* rng) {
  const uint64_t outcome = SampleBasisState(rng);
  amplitudes_.assign(amplitudes_.size(), Complex(0, 0));
  amplitudes_[outcome] = Complex(1, 0);
  return outcome;
}

uint64_t Statevector::SampleBasisState(Rng* rng) const {
  double r = rng->Uniform();
  double acc = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    acc += std::norm(amplitudes_[z]);
    if (r < acc) return z;
  }
  return amplitudes_.size() - 1;
}

std::map<uint64_t, int> Statevector::Sample(int shots, Rng* rng) const {
  std::map<uint64_t, int> counts;
  for (int s = 0; s < shots; ++s) ++counts[SampleBasisState(rng)];
  return counts;
}

double Statevector::ExpectationDiagonal(
    const std::vector<double>& diagonal) const {
  QDM_CHECK_EQ(diagonal.size(), amplitudes_.size());
  double e = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    e += std::norm(amplitudes_[z]) * diagonal[z];
  }
  return e;
}

Complex Statevector::InnerProduct(const Statevector& other) const {
  QDM_CHECK_EQ(num_qubits_, other.num_qubits_);
  Complex ip(0, 0);
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    ip += std::conj(amplitudes_[z]) * other.amplitudes_[z];
  }
  return ip;
}

double Statevector::FidelityWith(const Statevector& other) const {
  return std::norm(InnerProduct(other));
}

double Statevector::NormSquared() const {
  double n = 0.0;
  for (const Complex& a : amplitudes_) n += std::norm(a);
  return n;
}

void Statevector::Normalize() {
  const double n = std::sqrt(NormSquared());
  QDM_CHECK_GT(n, 0.0) << "cannot normalize the zero vector";
  for (Complex& a : amplitudes_) a /= n;
}

std::string Statevector::ToString(double cutoff) const {
  std::string out;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    if (std::abs(amplitudes_[z]) <= cutoff) continue;
    std::string bits;
    for (int q = num_qubits_ - 1; q >= 0; --q) {
      bits += ((z >> q) & 1) ? '1' : '0';
    }
    out += StrFormat("|%s>: %+.4f%+.4fi\n", bits.c_str(), amplitudes_[z].real(),
                     amplitudes_[z].imag());
  }
  return out;
}

Statevector RunCircuit(const circuit::Circuit& c) {
  Statevector sv(c.num_qubits());
  sv.ApplyCircuit(c);
  return sv;
}

std::map<uint64_t, int> SampleCircuit(const circuit::Circuit& c, int shots,
                                      Rng* rng) {
  return RunCircuit(c).Sample(shots, rng);
}

}  // namespace sim
}  // namespace qdm
