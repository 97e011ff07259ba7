// Golden result digests for the gate-based backend family: a 64-bit hash of
// the SampleSet bit patterns (assignments, energies and noise_fidelity as
// raw IEEE-754 words) that each backend returns on eight seeded 8-qubit MQO
// QUBOs. The digests are pinned constants, so any change to the statevector
// kernels, the variational optimizers or the Grover loop that moves a
// result by even one bit fails here, across commits and not only within one
// build. Every tier and kernel configuration must reproduce the same
// digest: the scalar reference kernels, the SIMD tier, and the chunked
// parallel kernels.
//
// A change that alters gate-based results on purpose regenerates the
// constants below (the failure message prints the new value) and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/mqo.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddSampleSet(const anneal::SampleSet& set, Digest* digest) {
  digest->Add(set.size());
  for (const anneal::Sample& s : set.samples()) {
    for (int bit : s.assignment) digest->Add(static_cast<uint64_t>(bit));
    digest->AddDouble(s.energy);
    digest->AddDouble(s.chain_break_fraction);
  }
  digest->AddDouble(set.noise_fidelity());
}

/// Eight 4-query x 2-plan MQO instances (8 qubits each) from one seed.
std::vector<anneal::Qubo> DigestQubos() {
  Rng rng(20240611);
  std::vector<anneal::Qubo> qubos;
  for (int i = 0; i < 8; ++i) {
    qubos.push_back(
        qopt::MqoToQubo(qopt::GenerateMqoProblem(4, 2, 0.4, &rng)));
  }
  return qubos;
}

uint64_t BackendDigest(const std::string& backend) {
  Digest digest;
  const std::vector<anneal::Qubo> qubos = DigestQubos();
  for (size_t i = 0; i < qubos.size(); ++i) {
    anneal::SolverOptions options;
    options.num_reads = 10;
    options.seed = 1000 + i;
    auto solved = anneal::SolveWith(backend, qubos[i], options);
    EXPECT_TRUE(solved.ok()) << backend << ": " << solved.status().ToString();
    if (!solved.ok()) return 0;
    AddSampleSet(*solved, &digest);
  }
  return digest.value();
}

struct GoldenDigest {
  const char* backend;
  uint64_t digest;
};

constexpr GoldenDigest kGolden[] = {
    {"qaoa", 0xcd42b7d951bf5954ull},
    {"vqe", 0x8a785d9eebb0e2c3ull},
    {"grover_min", 0x609e7d8f8a3c88dull},
    {"noisy:depol@0.01:qaoa", 0x2023dad229a8af40ull},
};

/// Sets the process-wide default kernel config for one scope.
class ScopedDefaultExecutionConfig {
 public:
  explicit ScopedDefaultExecutionConfig(const sim::ExecutionConfig& config)
      : previous_(sim::Statevector::DefaultExecutionConfig()) {
    sim::Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedDefaultExecutionConfig() {
    sim::Statevector::SetDefaultExecutionConfig(previous_);
  }

 private:
  sim::ExecutionConfig previous_;
};

void ExpectGoldenDigests(const char* tier) {
  for (const GoldenDigest& golden : kGolden) {
    const uint64_t got = BackendDigest(golden.backend);
    EXPECT_EQ(got, golden.digest)
        << golden.backend << " under " << tier << ": got 0x" << std::hex
        << got << "ull";
  }
}

TEST(GateDigestTest, DefaultTierMatchesGolden) {
  ExpectGoldenDigests("the default tier");
}

TEST(GateDigestTest, ScalarTierMatchesGolden) {
  ScopedDefaultExecutionConfig scalar({1, 0, sim::SimdMode::kScalar});
  ExpectGoldenDigests("the scalar tier");
}

TEST(GateDigestTest, ParallelSimdKernelsMatchGolden) {
  // serial_cutoff 1 sends every gate through the chunked parallel kernels.
  ScopedDefaultExecutionConfig parallel({2, 1, sim::SimdMode::kSimd});
  ExpectGoldenDigests("parallel SIMD kernels");
}

}  // namespace
}  // namespace qdm
