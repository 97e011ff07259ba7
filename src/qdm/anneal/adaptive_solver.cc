#include "qdm/anneal/adaptive_solver.h"

#include <algorithm>
#include <utility>

#include "qdm/anneal/portfolio_solver.h"
#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

namespace {

const char* kMemberLabel = "adaptive member";

/// Per-member failure framing, matching RaceMemberSolvers' annotation so
/// the explore and commit phases report members identically.
Status AnnotateAdaptiveMemberError(const Status& status, size_t index,
                                   const std::string& member) {
  return Status(status.code(),
                StrFormat("%s %zu ('%s'): %s", kMemberLabel, index,
                          member.c_str(), status.message().c_str()));
}

std::string DecisionString(const char* phase, int arm,
                           const std::string& member) {
  return StrFormat("%s:%d:%s", phase, arm, member.c_str());
}

/// Builds one backend per member name — the per-slot member sets of the
/// threaded batch path. Members were already resolved when the adaptive
/// solver was built, so failures here are unexpected, but they keep the
/// Make-time annotation if they happen.
Result<std::vector<std::unique_ptr<QuboSolver>>> CreateMemberSet(
    const std::string& name, const std::vector<std::string>& members) {
  std::vector<std::unique_ptr<QuboSolver>> solvers;
  solvers.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    Result<std::unique_ptr<QuboSolver>> solver =
        SolverRegistry::Global().Create(members[i]);
    if (!solver.ok()) {
      return Status(solver.status().code(),
                    StrFormat("adaptive solver '%s' member '%s': %s",
                              name.c_str(), members[i].c_str(),
                              solver.status().message().c_str()));
    }
    solvers.push_back(std::move(solver).value());
  }
  return solvers;
}

std::vector<QuboSolver*> RawPointers(
    const std::vector<std::unique_ptr<QuboSolver>>& solvers) {
  std::vector<QuboSolver*> raw;
  raw.reserve(solvers.size());
  for (const auto& solver : solvers) raw.push_back(solver.get());
  return raw;
}

}  // namespace

AdaptiveSolver::AdaptiveSolver(
    std::string registry_name, std::vector<std::string> members,
    std::vector<std::unique_ptr<QuboSolver>> member_solvers)
    : registry_name_(std::move(registry_name)),
      members_(std::move(members)),
      member_solvers_(std::move(member_solvers)),
      wins_(members_.size(), 0) {
  QDM_CHECK(members_.size() >= 2)
      << "adaptive portfolio " << registry_name_ << " needs >= 2 members";
  QDM_CHECK(member_solvers_.size() == members_.size())
      << "adaptive portfolio " << registry_name_
      << " member backends do not align with its member names";
}

int AdaptiveSolver::committed_member() const {
  if (solves_seen_ < static_cast<uint64_t>(kExploreInstances)) return -1;
  // Most wins commits; equal tallies keep the earliest member — the same
  // deterministic tie-break as the race winner scan.
  int best = 0;
  for (size_t m = 1; m < wins_.size(); ++m) {
    if (wins_[m] > wins_[best]) best = static_cast<int>(m);
  }
  return best;
}

Result<SampleSet> AdaptiveSolver::Solve(const Qubo& qubo,
                                        const SolverOptions& options) {
  if (solves_seen_ < static_cast<uint64_t>(kExploreInstances)) {
    // Explore races fan out across the shared pool like a race:* solve.
    QDM_ASSIGN_OR_RETURN(
        RaceOutcome outcome,
        RaceMemberSolvers(members_, RawPointers(member_solvers_), qubo,
                          options, /*num_threads=*/0, kMemberLabel));
    ++wins_[outcome.winner];
    ++solves_seen_;
    outcome.samples.set_decision(
        DecisionString("explore", outcome.winner, members_[outcome.winner]));
    return std::move(outcome.samples);
  }
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  const int w = committed_member();
  // The committed member keeps the seed+index rule of the explore races
  // (member m solves with seed + m), so one replay rule covers both
  // phases.
  Result<SampleSet> samples =
      member_solvers_[w]->Solve(qubo, DeriveBatchOptions(options, w));
  if (!samples.ok()) {
    return AnnotateAdaptiveMemberError(samples.status(), w, members_[w]);
  }
  if (samples->empty()) {
    return AnnotateAdaptiveMemberError(
        Status::Internal(StrFormat("solver '%s' returned an empty sample set",
                                   members_[w].c_str())),
        w, members_[w]);
  }
  ++solves_seen_;
  samples->set_decision(DecisionString("commit", w, members_[w]));
  return samples;
}

Result<std::vector<SampleSet>> AdaptiveSolver::SolveBatchThreaded(
    const std::vector<Qubo>& qubos, const SolverOptions& options,
    int num_threads) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (num_threads <= 0) num_threads = ThreadPool::DefaultNumThreads();
  const size_t n = qubos.size();

  // Positional schedule from the instance's current counter: the first
  // `explore` instances race, the rest run the committed member. A fresh
  // instance (counter 0) therefore explores instances [0, 8) and commits
  // from instance 8 — exactly what the sequential per-instance reference
  // does, at any thread count.
  const uint64_t remaining_explore =
      solves_seen_ < static_cast<uint64_t>(kExploreInstances)
          ? static_cast<uint64_t>(kExploreInstances) - solves_seen_
          : 0;
  const int explore = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(n), remaining_explore));
  const int commit = static_cast<int>(n) - explore;

  // Slot-local member sets: a race inside one instance runs its members
  // sequentially on that slot's own backends, so no backend is ever shared
  // across threads. Set 0 reuses the instance's own members; the backend
  // cache keeps the extra sets cheap. ForEach's slots stay below
  // min(phase size, num_threads).
  ThreadPool& pool = ThreadPool::Shared();
  const int slots = std::min(num_threads, std::max(explore, commit));
  std::vector<std::vector<std::unique_ptr<QuboSolver>>> extra_sets;
  std::vector<std::vector<QuboSolver*>> sets;
  sets.push_back(RawPointers(member_solvers_));
  for (int slot = 1; slot < slots; ++slot) {
    QDM_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<QuboSolver>> set,
                         CreateMemberSet(registry_name_, members_));
    extra_sets.push_back(std::move(set));
    sets.push_back(RawPointers(extra_sets.back()));
  }

  std::vector<SampleSet> results(n);

  // Explore phase: each slot races all members for the instances it
  // drains (inner races sequential — the parallelism is across instances).
  std::vector<Result<RaceOutcome>> races(explore,
                                         Status::Internal("not raced"));
  pool.ForEach(explore, num_threads,
               [this, &sets, &qubos, &options, &races](int slot, int i) {
                 races[i] = RaceMemberSolvers(
                     members_, sets[slot], qubos[i],
                     DeriveBatchOptions(options, i), /*num_threads=*/1,
                     kMemberLabel);
               });
  // Tally sequentially in instance order — the win counts and the commit
  // decision are a pure function of the batch, not of the fan-out. The
  // counter advances per successful instance, mirroring the sequential
  // reference's stop-at-first-failure accounting.
  for (int i = 0; i < explore; ++i) {
    if (!races[i].ok()) {
      return AnnotateBatchInstanceError(races[i].status(), i, n);
    }
    RaceOutcome& outcome = *races[i];
    ++wins_[outcome.winner];
    ++solves_seen_;
    outcome.samples.set_decision(
        DecisionString("explore", outcome.winner, members_[outcome.winner]));
    results[i] = std::move(outcome.samples);
  }
  if (commit == 0) return results;

  // Commit phase: only the winning member runs for the rest of the batch.
  const int w = committed_member();
  std::vector<Status> statuses(commit);
  pool.ForEach(
      commit, num_threads,
      [this, &sets, &qubos, &options, &results, &statuses, w, explore](
          int slot, int j) {
        const size_t i = explore + j;
        Result<SampleSet> samples = sets[slot][w]->Solve(
            qubos[i],
            DeriveBatchOptions(DeriveBatchOptions(options, i), w));
        if (!samples.ok()) {
          statuses[j] =
              AnnotateAdaptiveMemberError(samples.status(), w, members_[w]);
          return;
        }
        if (samples->empty()) {
          statuses[j] = AnnotateAdaptiveMemberError(
              Status::Internal(
                  StrFormat("solver '%s' returned an empty sample set",
                            members_[w].c_str())),
              w, members_[w]);
          return;
        }
        samples->set_decision(DecisionString("commit", w, members_[w]));
        results[i] = std::move(samples).value();
      });
  for (int j = 0; j < commit; ++j) {
    if (!statuses[j].ok()) {
      return AnnotateBatchInstanceError(statuses[j], explore + j, n);
    }
    ++solves_seen_;
  }
  return results;
}

Result<std::unique_ptr<QuboSolver>> MakeAdaptiveSolver(
    const std::string& name) {
  const std::string kPrefix = "adaptive:";
  if (!StartsWith(name, kPrefix)) {
    return Status::InvalidArgument(
        StrFormat("adaptive solver name '%s' must start with '%s'",
                  name.c_str(), kPrefix.c_str()));
  }
  const std::vector<std::string> members =
      StrSplit(name.substr(kPrefix.size()), '+');
  if (members.size() < 2) {
    return Status::InvalidArgument(StrFormat(
        "adaptive solver name '%s' needs at least two '+'-separated "
        "members ('adaptive:<b1>+<b2>[+...]'); an adaptive portfolio of one "
        "is just that backend",
        name.c_str()));
  }
  std::vector<std::unique_ptr<QuboSolver>> member_solvers;
  member_solvers.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].empty()) {
      return Status::InvalidArgument(StrFormat(
          "adaptive solver name '%s' has an empty member at position %zu",
          name.c_str(), i));
    }
    if (StartsWith(members[i], kPrefix)) {
      return Status::InvalidArgument(StrFormat(
          "nested adaptive backends are not supported ('%s' inside '%s'): "
          "'+' would be ambiguous",
          members[i].c_str(), name.c_str()));
    }
    if (StartsWith(members[i], "race:")) {
      return Status::InvalidArgument(StrFormat(
          "race backends cannot be adaptive members ('%s' inside '%s'): '+' "
          "would be ambiguous",
          members[i].c_str(), name.c_str()));
    }
    // Resolve (not just Contains) so a member's real diagnosis survives —
    // e.g. a malformed embedded topology spec stays InvalidArgument with
    // the spec error instead of collapsing into a generic NotFound. The
    // built backends are handed to the selector and reused by its solves.
    Result<std::unique_ptr<QuboSolver>> member_solver =
        SolverRegistry::Global().Create(members[i]);
    if (!member_solver.ok()) {
      return Status(member_solver.status().code(),
                    StrFormat("adaptive solver '%s' member '%s': %s",
                              name.c_str(), members[i].c_str(),
                              member_solver.status().message().c_str()));
    }
    member_solvers.push_back(std::move(member_solver).value());
  }
  return std::unique_ptr<QuboSolver>(std::make_unique<AdaptiveSolver>(
      name, members, std::move(member_solvers)));
}

Result<SampleSet> ReplayAdaptiveDecision(
    const std::string& decision, const Qubo& qubo,
    const SolverOptions& instance_options) {
  const auto malformed = [&decision] {
    return Status::InvalidArgument(StrFormat(
        "adaptive decision '%s' must have the form '<phase>:<arm>:<member>' "
        "with phase 'explore' or 'commit' and a non-negative arm index",
        decision.c_str()));
  };
  const size_t first = decision.find(':');
  if (first == std::string::npos) return malformed();
  const size_t second = decision.find(':', first + 1);
  if (second == std::string::npos || second + 1 >= decision.size()) {
    return malformed();
  }
  const std::string phase = decision.substr(0, first);
  if (phase != "explore" && phase != "commit") return malformed();
  const std::string arm_token = decision.substr(first + 1, second - first - 1);
  if (arm_token.empty()) return malformed();
  size_t arm = 0;
  for (char c : arm_token) {
    if (c < '0' || c > '9') return malformed();
    arm = arm * 10 + static_cast<size_t>(c - '0');
  }
  const std::string member = decision.substr(second + 1);
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> solver,
                       SolverRegistry::Global().Create(member));
  // The one replay rule (see the header): the recorded member ran with the
  // arm's derived seed, in both phases.
  QDM_ASSIGN_OR_RETURN(
      SampleSet samples,
      solver->Solve(qubo, DeriveBatchOptions(instance_options, arm)));
  samples.set_decision(decision);
  return samples;
}

bool RegisterAdaptiveSolvers() {
  auto& registry = SolverRegistry::Global();
  // Any well-formed "adaptive:<b1>+<b2>+..." name resolves on demand.
  (void)registry.RegisterPrefix("adaptive:", MakeAdaptiveSolver);
  // Eagerly register the canonical selector so it shows up in
  // RegisteredNames() (and is covered by the every-registered-backend
  // tests). AlreadyExists on re-entry is expected and harmless.
  const char* kDefault = "adaptive:simulated_annealing+tabu_search";
  (void)registry.Register(kDefault, [kDefault] {
    Result<std::unique_ptr<QuboSolver>> solver = MakeAdaptiveSolver(kDefault);
    QDM_CHECK(solver.ok()) << "default adaptive backend '" << kDefault
                           << "' failed to build: " << solver.status();
    return std::move(solver).value();
  });
  return true;
}

namespace {
[[maybe_unused]] const bool kAdaptiveSolversRegistered =
    RegisterAdaptiveSolvers();
}  // namespace

}  // namespace anneal
}  // namespace qdm
