#ifndef QDM_ANNEAL_ADAPTIVE_SOLVER_H_
#define QDM_ANNEAL_ADAPTIVE_SOLVER_H_

#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Adaptive portfolio selector behind one registry name
/// ("adaptive:<b1>+<b2>[+...]"): the exploit stage on top of the
/// cached-backend substrate. Where "race:*" pays every member on every
/// solve forever, "adaptive:*" races all members only for an EXPLORE
/// prefix of its solve stream, tallies which member won each race
/// (RaceOutcome telemetry, same winner rule as race:*), then COMMITS to
/// the member with the most wins and runs only that one — cutting the
/// wasted race arms under batch traffic the paper's dispatch layer cares
/// about. The trade against race:* is explicit: after the commit point
/// there is no more hedging, so a failing committed member fails the
/// solve instead of being dropped.
///
/// Schedule: solve k of an instance's lifetime (Solve calls and batch
/// instances advance the same counter) explores while k <
/// kExploreInstances, commits after. The counter makes the instance
/// STATEFUL across Solve calls, which is exactly what the per-slot batch
/// fan-out cannot reuse across dynamically scheduled instances (and the
/// member committed for instance i >= kExploreInstances is the argmax of
/// the explore wins, not a function of i alone) — so the
/// class reports SolvesWholeBatch() and SolveBatchParallel hands it the
/// whole batch (SolveBatchThreaded), where it keeps the schedule
/// positional and bit-identical at any thread count. A freshly Created
/// instance therefore always sees batch instance i as lifetime solve i,
/// which is what makes the sequential service path (one Solve per
/// instance on one backend) bit-identical to SolveBatchParallel.
///
/// Decisions: every returned SampleSet carries
/// "<phase>:<arm>:<member>" in SampleSet::decision ("explore:1:
/// tabu_search", "commit:0:simulated_annealing"), rides the wire format
/// backward-compatibly, and is sufficient for bit-exact replay of the
/// solve WITHOUT re-running the race — see ReplayAdaptiveDecision.
///
/// Randomness: member m of lifetime solve k runs with
/// DeriveBatchOptions(instance_options, m) — the same seed+index rule as
/// race:* — in both phases (the committed member keeps its member offset,
/// so a decision replays with one rule).
class AdaptiveSolver : public QuboSolver {
 public:
  /// Lifetime solves raced before committing. Large enough that a noisy
  /// win-rate skew cannot flip the commit on real workloads, small enough
  /// that the explore cost amortizes within one serving batch.
  static constexpr int kExploreInstances = 8;

  /// `registry_name` is what name() reports — the full "adaptive:..."
  /// string the instance was created under. `member_solvers` aligns 1:1
  /// with `members` (MakeAdaptiveSolver hands over the backends it built
  /// for validation); they are owned and reused across Solve calls.
  AdaptiveSolver(std::string registry_name, std::vector<std::string> members,
                 std::vector<std::unique_ptr<QuboSolver>> member_solvers);

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  bool SolvesWholeBatch() const override { return true; }
  Result<std::vector<SampleSet>> SolveBatchThreaded(
      const std::vector<Qubo>& qubos, const SolverOptions& options,
      int num_threads) override;
  std::string name() const override { return registry_name_; }

  const std::vector<std::string>& members() const { return members_; }

  /// The member a commit-phase solve would run right now: -1 while still
  /// exploring, else the argmax of the win tally (earliest member on
  /// ties — the same deterministic tie-break as the race winner scan).
  int committed_member() const;

  /// Win tally over the explore solves seen so far, indexed like members().
  const std::vector<int>& wins() const { return wins_; }

 private:
  std::string registry_name_;
  std::vector<std::string> members_;
  std::vector<std::unique_ptr<QuboSolver>> member_solvers_;
  uint64_t solves_seen_ = 0;
  std::vector<int> wins_;
};

/// Builds an AdaptiveSolver from a registry name of the form
///   "adaptive:<b1>+<b2>[+<b3>...]"
/// e.g. "adaptive:simulated_annealing+tabu_search",
/// "adaptive:exact+embedded:simulated_annealing:pegasus:6". Same error
/// taxonomy as the race:* family: at least two '+'-separated members
/// (InvalidArgument otherwise), empty members rejected by position,
/// nesting "adaptive:" or "race:" members rejected as InvalidArgument
/// ('+' would be ambiguous), and a member that fails to resolve propagates
/// its underlying error annotated with the full adaptive name. This is the
/// resolver behind the registry's "adaptive:" prefix.
Result<std::unique_ptr<QuboSolver>> MakeAdaptiveSolver(
    const std::string& name);

/// Re-runs the solve a recorded decision string describes, bit-identically
/// and WITHOUT racing: parses "<phase>:<arm>:<member>", resolves `member`
/// in the registry, and solves with DeriveBatchOptions(instance_options,
/// arm) — `instance_options` being exactly the options the adaptive solve
/// saw for that instance (for batch instance i through SolveBatchParallel:
/// DeriveBatchOptions(batch_options, i)). The returned SampleSet — samples
/// AND decision field — is bit-identical to the recorded one, for explore
/// decisions too (a race returns the winning member's SampleSet verbatim).
/// Malformed decision strings are InvalidArgument; the member resolves
/// through the registry's normal error taxonomy.
Result<SampleSet> ReplayAdaptiveDecision(const std::string& decision,
                                         const Qubo& qubo,
                                         const SolverOptions& instance_options);

/// Registers the default adaptive backend
/// ("adaptive:simulated_annealing+tabu_search", visible in
/// RegisteredNames()) and the "adaptive:" prefix resolver. Invoked by a
/// static registrar; safe to call again (AlreadyExists is ignored).
bool RegisterAdaptiveSolvers();

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_ADAPTIVE_SOLVER_H_
