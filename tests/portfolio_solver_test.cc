// The portfolio-racing contract (anneal::SolveRaceParallel, PortfolioSolver,
// and the registry's "race:" prefix): deterministic best-energy winner with
// backend-order tie-break at any thread count, hedging across failing
// members, the error taxonomy, and composition with SolveBatchParallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "qdm/anneal/portfolio_solver.h"
#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {
namespace {

/// A 4-variable instance with a unique ground state but a rugged enough
/// landscape that heuristic members return distinguishable sample sets.
Qubo SmallQubo() {
  Qubo q(4);
  q.AddLinear(0, -2.0);
  q.AddLinear(1, 1.0);
  q.AddLinear(2, -1.5);
  q.AddLinear(3, 0.5);
  q.AddQuadratic(0, 1, -1.0);
  q.AddQuadratic(1, 2, 2.0);
  q.AddQuadratic(2, 3, -0.75);
  return q;
}

/// Exceeds the exact solver's 30-variable enumeration limit.
Qubo OversizedQubo() {
  Qubo q(31);
  for (int i = 0; i < 31; ++i) q.AddLinear(i, -1.0);
  return q;
}

SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 3;
  options.num_sweeps = 200;
  options.max_iterations = 100;
  options.seed = seed;
  return options;
}

void ExpectSameSampleSet(const SampleSet& a, const SampleSet& b,
                         const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a.samples()[s].assignment, b.samples()[s].assignment)
        << context << " sample " << s;
    EXPECT_EQ(a.samples()[s].energy, b.samples()[s].energy)
        << context << " sample " << s;
  }
}

TEST(PortfolioSolverTest, DefaultPortfolioIsRegisteredAndRoundTrips) {
  const std::string kDefault = "race:simulated_annealing+tabu_search";
  const std::vector<std::string> names =
      SolverRegistry::Global().RegisteredNames();
  EXPECT_NE(std::find(names.begin(), names.end(), kDefault), names.end());
  auto solver = SolverRegistry::Global().Create(kDefault);
  ASSERT_TRUE(solver.ok()) << solver.status();
  EXPECT_EQ((*solver)->name(), kDefault);
}

TEST(PortfolioSolverTest, PrefixResolverAcceptsAnyWellFormedName) {
  // Neither name is eagerly registered; both resolve dynamically — members
  // may themselves come from the "embedded:" prefix family.
  for (const std::string name :
       {"race:exact+tabu_search",
        "race:simulated_annealing+embedded:simulated_annealing:chimera:4x4x4",
        "race:exact+parallel_tempering+tabu_search"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(name)) << name;
    auto solver = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status();
    EXPECT_EQ((*solver)->name(), name);
  }
}

TEST(PortfolioSolverTest, MalformedAndUnknownNamesAreRejected) {
  auto& registry = SolverRegistry::Global();
  // Fewer than two members.
  auto single = registry.Create("race:simulated_annealing");
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
  // Empty member.
  auto empty = registry.Create("race:+tabu_search");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  // Nested race.
  auto nested = registry.Create("race:simulated_annealing+race:exact+exact");
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  // Unknown member: NotFound, annotated with the FULL race spec and the
  // member that failed to resolve.
  const std::string bad = "race:simulated_annealing+warp_drive";
  auto unknown = registry.Create(bad);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find(bad), std::string::npos)
      << unknown.status().message();
  EXPECT_NE(unknown.status().message().find("'warp_drive'"), std::string::npos)
      << unknown.status().message();
  // A member that exists as a family but fails to build keeps its real
  // diagnosis (code + message), annotated with the race name — it must not
  // collapse into a generic NotFound.
  auto malformed = registry.Create(
      "race:simulated_annealing+embedded:simulated_annealing:pegasus:0");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(malformed.status().message().find("pegasus"), std::string::npos)
      << malformed.status().message();
}

TEST(PortfolioSolverTest, WinnerIsBitIdenticalAcrossThreadCounts) {
  const Qubo qubo = SmallQubo();
  const SolverOptions options = FastOptions(11);
  const std::vector<std::string> members = {
      "simulated_annealing", "tabu_search", "parallel_tempering"};
  auto sequential = SolveRaceParallel(members, qubo, options, 1);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  // 0 = the shared-pool composition default; 2/8 = transient pools.
  for (int threads : {0, 2, 8}) {
    auto raced = SolveRaceParallel(members, qubo, options, threads);
    ASSERT_TRUE(raced.ok()) << threads << " threads: " << raced.status();
    ExpectSameSampleSet(*sequential, *raced,
                        "race at " + std::to_string(threads) + " threads");
  }
}

TEST(PortfolioSolverTest, WinnerMatchesBestMemberUnderDerivedSeeds) {
  const Qubo qubo = SmallQubo();
  const SolverOptions options = FastOptions(23);
  const std::vector<std::string> members = {
      "simulated_annealing", "tabu_search", "parallel_tempering"};
  // Member i races with seed options.seed + i; reproduce each solo.
  std::vector<SampleSet> solo;
  for (size_t i = 0; i < members.size(); ++i) {
    auto result =
        SolveWith(members[i], qubo, DeriveBatchOptions(options, i));
    ASSERT_TRUE(result.ok()) << members[i] << ": " << result.status();
    solo.push_back(*result);
  }
  size_t expected = 0;
  for (size_t i = 1; i < solo.size(); ++i) {
    if (solo[i].best().energy < solo[expected].best().energy) expected = i;
  }
  auto raced = SolveRaceParallel(members, qubo, options, 8);
  ASSERT_TRUE(raced.ok()) << raced.status();
  ExpectSameSampleSet(solo[expected], *raced,
                      "winner should be member " + members[expected]);
}

TEST(PortfolioSolverTest, EqualBestEnergiesKeepTheEarlierMember) {
  // On this tiny instance both simulated annealing and the exact solver
  // reach the ground energy, but their sample SETS differ (the annealer
  // resamples the ground state; exact enumerates distinct states in energy
  // order) — so the tie-break is observable: whichever is listed FIRST must
  // supply the returned set, in both orders.
  const Qubo qubo = SmallQubo();
  const SolverOptions options = FastOptions(5);
  SampleSet sa = *SolveWith("simulated_annealing", qubo,
                            DeriveBatchOptions(options, 0));
  SampleSet exact_first =
      *SolveWith("exact", qubo, DeriveBatchOptions(options, 0));
  ASSERT_EQ(sa.best().energy, exact_first.best().energy)
      << "precondition: both members must tie on the ground energy";

  auto sa_first =
      SolveRaceParallel({"simulated_annealing", "exact"}, qubo, options, 2);
  ASSERT_TRUE(sa_first.ok()) << sa_first.status();
  ExpectSameSampleSet(sa, *sa_first, "tie must keep member 0 (annealer)");

  auto exact_leads =
      SolveRaceParallel({"exact", "simulated_annealing"}, qubo, options, 2);
  ASSERT_TRUE(exact_leads.ok()) << exact_leads.status();
  ExpectSameSampleSet(exact_first, *exact_leads,
                      "tie must keep member 0 (exact)");
}

TEST(PortfolioSolverTest, FailingMembersAreDroppedWhileAnySurvives) {
  // The exact member rejects the 31-variable instance; the race hedges and
  // returns the tabu survivor (solved with its derived seed + 1).
  const Qubo qubo = OversizedQubo();
  const SolverOptions options = FastOptions(9);
  auto raced =
      SolveRaceParallel({"exact", "tabu_search"}, qubo, options, 2);
  ASSERT_TRUE(raced.ok()) << raced.status();
  SampleSet tabu =
      *SolveWith("tabu_search", qubo, DeriveBatchOptions(options, 1));
  ExpectSameSampleSet(tabu, *raced, "surviving member wins");
}

TEST(PortfolioSolverTest, AllMembersFailingPropagatesLowestIndexAnnotated) {
  const Qubo qubo = OversizedQubo();
  const SolverOptions options = FastOptions(9);
  for (int threads : {1, 4}) {
    auto raced = SolveRaceParallel({"exact", "exact"}, qubo, options, threads);
    ASSERT_FALSE(raced.ok()) << threads << " threads";
    EXPECT_EQ(raced.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
    EXPECT_NE(raced.status().message().find("race member 0 ('exact')"),
              std::string::npos)
        << threads << " threads: " << raced.status().message();
  }
}

TEST(PortfolioSolverTest, UnknownMemberSurfacesBeforeAnyFanOut) {
  auto raced = SolveRaceParallel({"simulated_annealing", "warp_drive"},
                                 SmallQubo(), FastOptions(1), 4);
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.status().code(), StatusCode::kNotFound);
  EXPECT_NE(raced.status().message().find("race member 1 ('warp_drive')"),
            std::string::npos)
      << raced.status().message();
}

TEST(PortfolioSolverTest, EmptyMemberListIsInvalid) {
  auto raced = SolveRaceParallel({}, SmallQubo(), FastOptions(1), 1);
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.status().code(), StatusCode::kInvalidArgument);
}

TEST(PortfolioSolverTest, RaceComposesWithSolveBatchParallel) {
  // A "race:*" backend inside a batch: batch instance i races with seed + i,
  // so the whole fan-out-of-fan-outs stays a pure function of (qubos,
  // options) — bit-identical at every thread count and reproducible one
  // instance at a time.
  std::vector<Qubo> qubos;
  for (int k = 0; k < 4; ++k) {
    Qubo q = SmallQubo();
    q.AddLinear(0, 0.25 * k);
    qubos.push_back(q);
  }
  const SolverOptions options = FastOptions(17);
  const std::string name = "race:simulated_annealing+tabu_search";
  auto one = SolveBatchParallel(name, qubos, options, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), qubos.size());
  for (int threads : {2, 8}) {
    auto many = SolveBatchParallel(name, qubos, options, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    for (size_t i = 0; i < qubos.size(); ++i) {
      ExpectSameSampleSet(
          (*one)[i], (*many)[i],
          "batched race instance " + std::to_string(i) + " at " +
              std::to_string(threads) + " threads");
    }
  }
  // Instance i of the batch equals a standalone race with seed + i.
  for (size_t i = 0; i < qubos.size(); ++i) {
    auto standalone =
        SolveRaceParallel({"simulated_annealing", "tabu_search"}, qubos[i],
                          DeriveBatchOptions(options, i), 0);
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    ExpectSameSampleSet((*one)[i], *standalone,
                        "batch instance " + std::to_string(i) +
                            " vs standalone race");
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
