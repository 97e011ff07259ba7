#include "qdm/anneal/embedding.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qdm/anneal/frozen_qubo.h"
#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

int Embedding::TotalPhysicalQubits() const {
  int total = 0;
  for (const auto& chain : chains) total += static_cast<int>(chain.size());
  return total;
}

int Embedding::MaxChainLength() const {
  int max_len = 0;
  for (const auto& chain : chains) {
    max_len = std::max(max_len, static_cast<int>(chain.size()));
  }
  return max_len;
}

const char* ToString(ChainBreakPolicy policy) {
  switch (policy) {
    case ChainBreakPolicy::kMajorityVote:
      return "majority_vote";
    case ChainBreakPolicy::kMinimizeEnergy:
      return "minimize_energy";
    case ChainBreakPolicy::kDiscard:
      return "discard";
  }
  return "unknown";
}

Result<Embedding> CliqueEmbedding(int num_logical,
                                  const HardwareTopology& topology) {
  Result<std::vector<std::vector<int>>> chains =
      topology.CliqueChains(num_logical);
  if (!chains.ok()) return chains.status();
  Embedding embedding;
  embedding.chains = std::move(chains).value();
  return embedding;
}

namespace {

/// Finds one hardware coupler connecting chain_a to chain_b, or (-1,-1).
std::pair<int, int> FindCoupler(const std::vector<int>& chain_a,
                                const std::vector<int>& chain_b,
                                const HardwareTopology& topology) {
  for (int a : chain_a) {
    for (int b : chain_b) {
      if (topology.HasEdge(a, b)) return {a, b};
    }
  }
  return {-1, -1};
}

/// The zero-means-default resolution for chain_strength: twice the largest
/// |coefficient| of the logical model in Ising space, so no single logical
/// term can profitably break a chain; 1.0 for an all-zero model.
double AutoChainStrength(const IsingModel& logical_ising) {
  double max_abs = 0.0;
  for (double h : logical_ising.h) max_abs = std::max(max_abs, std::fabs(h));
  for (const auto& [key, w] : logical_ising.j) {
    max_abs = std::max(max_abs, std::fabs(w));
  }
  return max_abs > 0.0 ? 2.0 * max_abs : 1.0;
}

}  // namespace

Result<EmbeddedQubo> EmbedQubo(const Qubo& logical, const Embedding& embedding,
                               const HardwareTopology& topology,
                               double chain_strength) {
  if (embedding.num_logical() < logical.num_variables()) {
    return Status::InvalidArgument("embedding has fewer chains than variables");
  }
  if (chain_strength < 0.0) {
    return Status::InvalidArgument(
        StrFormat("chain_strength must be non-negative (0 = auto-scale), "
                  "got %g",
                  chain_strength));
  }

  // Work in Ising space (the natural space for chain couplings), then convert.
  IsingModel logical_ising = QuboToIsing(logical);
  if (chain_strength == 0.0) chain_strength = AutoChainStrength(logical_ising);
  IsingModel physical;
  physical.num_spins = topology.num_qubits();
  physical.h.assign(physical.num_spins, 0.0);
  physical.offset = logical_ising.offset;

  // Spread linear biases uniformly over chains.
  for (int i = 0; i < logical.num_variables(); ++i) {
    const auto& chain = embedding.chains[i];
    QDM_CHECK(!chain.empty());
    for (int q : chain) physical.h[q] += logical_ising.h[i] / chain.size();
  }

  // Place each logical coupling on one hardware coupler between the chains.
  for (const auto& [key, w] : logical_ising.j) {
    if (w == 0.0) continue;
    auto [a, b] = FindCoupler(embedding.chains[key.first],
                              embedding.chains[key.second], topology);
    if (a < 0) {
      return Status::FailedPrecondition(
          StrFormat("no hardware coupler between chains of x%d and x%d",
                    key.first, key.second));
    }
    physical.j[{std::min(a, b), std::max(a, b)}] += w;
  }

  // Ferromagnetic chain bonds: -chain_strength * s_a s_b on every intra-chain
  // hardware edge (energy minimized when the chain is aligned). Compensate the
  // offset so a fully-aligned physical ground state reports the logical energy.
  int num_chain_edges = 0;
  for (int i = 0; i < logical.num_variables(); ++i) {
    const auto& chain = embedding.chains[i];
    for (size_t a = 0; a < chain.size(); ++a) {
      for (size_t b = a + 1; b < chain.size(); ++b) {
        if (topology.HasEdge(chain[a], chain[b])) {
          physical.j[{std::min(chain[a], chain[b]),
                      std::max(chain[a], chain[b])}] -= chain_strength;
          ++num_chain_edges;
        }
      }
    }
  }
  physical.offset += chain_strength * num_chain_edges;

  EmbeddedQubo out{IsingToQubo(physical), embedding, chain_strength};
  return out;
}

namespace {

// Unembed against a model frozen once per sample set: the kMinimizeEnergy
// repair reads one O(deg) local field per broken chain.
Sample UnembedFrozen(const FrozenQubo& logical, const EmbeddedQubo& embedded,
                     const Sample& physical_sample, ChainBreakPolicy policy) {
  const int n = logical.num_variables();
  Assignment x(n, 0);
  std::vector<bool> chain_broken(n, false);
  int broken = 0;
  for (int i = 0; i < n; ++i) {
    const auto& chain = embedded.embedding.chains[i];
    int ones = 0;
    for (int q : chain) ones += physical_sample.assignment[q];
    const int len = static_cast<int>(chain.size());
    x[i] = (2 * ones > len) ? 1 : 0;
    if (ones != 0 && ones != len) {
      chain_broken[i] = true;
      ++broken;
    }
  }
  if (policy == ChainBreakPolicy::kMinimizeEnergy && broken > 0) {
    // Deterministic single-pass repair: flip each broken chain's value when
    // that lowers the logical energy given the current assignment.
    for (int i = 0; i < n; ++i) {
      if (!chain_broken[i]) continue;
      const double field = logical.Field(x, i);
      if ((x[i] ? -field : field) < 0.0) x[i] = 1 - x[i];
    }
  }
  Sample out;
  out.assignment = std::move(x);
  out.energy = logical.Energy(out.assignment);
  out.chain_break_fraction = n > 0 ? static_cast<double>(broken) / n : 0.0;
  return out;
}

}  // namespace

Sample Unembed(const Qubo& logical, const EmbeddedQubo& embedded,
               const Sample& physical_sample, ChainBreakPolicy policy) {
  return UnembedFrozen(FrozenQubo(logical), embedded, physical_sample,
                       policy);
}

SampleSet UnembedAll(const Qubo& logical, const EmbeddedQubo& embedded,
                     const SampleSet& physical, ChainBreakPolicy policy) {
  const FrozenQubo model(logical);
  SampleSet logical_set;
  for (const Sample& s : physical.samples()) {
    Sample unembedded = UnembedFrozen(model, embedded, s, policy);
    if (policy == ChainBreakPolicy::kDiscard &&
        unembedded.chain_break_fraction > 0.0) {
      continue;
    }
    logical_set.Add(std::move(unembedded));
  }
  if (policy == ChainBreakPolicy::kDiscard && logical_set.empty() &&
      !physical.empty()) {
    // All samples broken: fall back to majority vote rather than returning
    // an empty set (see ChainBreakPolicy::kDiscard).
    for (const Sample& s : physical.samples()) {
      logical_set.Add(UnembedFrozen(model, embedded, s,
                                    ChainBreakPolicy::kMajorityVote));
    }
  }
  return logical_set;
}

}  // namespace anneal
}  // namespace qdm
