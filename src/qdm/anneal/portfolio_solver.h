#ifndef QDM_ANNEAL_PORTFOLIO_SOLVER_H_
#define QDM_ANNEAL_PORTFOLIO_SOLVER_H_

#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Races every backend in `members` (registry names — including
/// "embedded:<base>:<topology>" ones) on the SAME qubo and returns the
/// winning member's SampleSet. The hybrid-architecture hedge of the NISQ-era
/// companion papers (Hai et al.; Zajac & Stoerl): no single device or
/// heuristic dominates, so one request fans out to many engines and the best
/// answer wins.
///
/// Contract:
///
///  - Winner: the member whose best (lowest-energy) sample is strictly
///    lowest; on equal best energies the earliest member in `members` wins
///    (backend-order tie-break), so the result never depends on timing.
///  - Randomness: member i is solved with DeriveBatchOptions(options, i) —
///    i.e. seed + i — making the race a pure function of (members, qubo,
///    options), bit-identical at every num_threads value.
///  - Partial failure is the point of racing: members that fail (or return
///    an empty sample set) are dropped and the winner is picked among the
///    survivors. Only when EVERY member fails does the race fail, returning
///    the lowest-index member's Status annotated "race member <i> ('<name>')".
///  - Unknown member names are surfaced up front (before any fan-out), as
///    the registry's Create error annotated with the member name.
///
/// num_threads caps how many members solve at once, the calling thread
/// included, exactly as in SolveBatchParallel: members run on
/// ThreadPool::Shared() through its capped, caller-participating ForEach,
/// which spawns no thread and cannot deadlock when the race itself runs
/// inside another pool task (the calling thread drains its own index
/// counter). 1 = strictly sequential on the calling thread; <= 0 = no cap
/// beyond the pool (the composition default).
///
/// Seed-derivation composition note: SolveBatchParallel solves batch
/// instance i with seed + i, so a "race:*" backend inside a batch solves
/// member m of instance i with seed + i + m. Adjacent instances therefore
/// reuse member seeds on DIFFERENT qubos/backends — harmless, but worth
/// knowing when reproducing one member's solve in isolation.
Result<SampleSet> SolveRaceParallel(const std::vector<std::string>& members,
                                    const Qubo& qubo,
                                    const SolverOptions& options,
                                    int num_threads = 0);

/// Outcome of one race, exposing WHICH member won — the per-solve telemetry
/// the adaptive:* selector (adaptive_solver.h) tallies into win counts.
/// `samples` is the winning member's SampleSet verbatim.
struct RaceOutcome {
  int winner = 0;
  SampleSet samples;
};

/// The race core over already-constructed member backends: members/solvers
/// align 1:1, each member is solved by exactly one task (so one object per
/// member satisfies the no-thread-safety contract), and the backends are
/// the caller's to reuse across calls — member construction is non-trivial
/// (an "embedded:*" member builds its topology graph; the backend cache
/// only amortizes, not eliminates, that cost). Winner selection, seed
/// derivation, and num_threads modes follow the SolveRaceParallel contract
/// above. `member_label` prefixes per-member failure annotations ("race
/// member" for the race:* family, "adaptive member" for adaptive:*).
Result<RaceOutcome> RaceMemberSolvers(
    const std::vector<std::string>& members,
    const std::vector<QuboSolver*>& solvers, const Qubo& qubo,
    const SolverOptions& options, int num_threads,
    const std::string& member_label = "race member");

/// QuboSolver combinator presenting a solver portfolio behind one registry
/// name: Solve races the members across the shared ThreadPool, uncapped
/// (the SolveRaceParallel composition default), and SolveBatch inherits the
/// sequential reference, so "race:*" names compose with
/// SolveBatchParallel — and with qopt::QuboPipeline — exactly like any
/// other backend, bit-identical at every thread count.
class PortfolioSolver : public QuboSolver {
 public:
  /// `registry_name` is what name() reports — the full "race:..." string the
  /// instance was created under, so it can be re-Created by name. When
  /// `member_solvers` is non-empty it must align 1:1 with `members`; the
  /// backends are then owned and reused across Solve calls (member backend
  /// construction can be non-trivial — an "embedded:*" member builds its
  /// topology graph — so MakePortfolioSolver hands over the instances it
  /// already built for validation). An empty list is resolved lazily on
  /// first Solve.
  PortfolioSolver(std::string registry_name, std::vector<std::string> members,
                  std::vector<std::unique_ptr<QuboSolver>> member_solvers = {});

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  std::string name() const override { return registry_name_; }

  const std::vector<std::string>& members() const { return members_; }

 private:
  /// Builds member_solvers_ from members_ if not yet built.
  Status EnsureMemberSolvers();

  std::string registry_name_;
  std::vector<std::string> members_;
  std::vector<std::unique_ptr<QuboSolver>> member_solvers_;
};

/// Builds a PortfolioSolver from a registry name of the form
///   "race:<b1>+<b2>[+<b3>...]"
/// e.g. "race:simulated_annealing+tabu_search",
/// "race:exact+embedded:simulated_annealing:pegasus:6". At least two
/// '+'-separated members are required (InvalidArgument otherwise; a race of
/// one is just that backend), members may be any registry-resolvable name
/// including "embedded:*" (a member that fails to resolve propagates its
/// underlying error — NotFound for unknown names, InvalidArgument for e.g. a
/// malformed topology spec — annotated with the full race name), and nesting
/// "race:" members is rejected as InvalidArgument ('+' would be ambiguous).
/// This is the resolver behind the registry's "race:" prefix:
/// SolverRegistry::Create accepts ANY well-formed race name, while
/// RegisteredNames() lists only the eagerly-registered default.
Result<std::unique_ptr<QuboSolver>> MakePortfolioSolver(
    const std::string& name);

/// Registers the default portfolio backend
/// ("race:simulated_annealing+tabu_search", visible in RegisteredNames())
/// and the "race:" prefix resolver. Invoked by a static registrar; safe to
/// call again (AlreadyExists is ignored).
bool RegisterPortfolioSolvers();

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_PORTFOLIO_SOLVER_H_
