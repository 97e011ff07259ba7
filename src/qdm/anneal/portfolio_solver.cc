#include "qdm/anneal/portfolio_solver.h"

#include <utility>

#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

namespace {

/// Prefixes a per-member failure with its position and name, preserving the
/// original code so callers can still dispatch on it. `label` is the family
/// framing: "race member" or "adaptive member".
Status AnnotateMemberError(const Status& status, size_t index,
                           const std::string& member,
                           const std::string& label) {
  return Status(status.code(),
                StrFormat("%s %zu ('%s'): %s", label.c_str(), index,
                          member.c_str(), status.message().c_str()));
}

/// Solves one race member. Folds an empty SampleSet into an Internal error
/// so the winner scan only ever sees usable sets.
Result<SampleSet> SolveMember(QuboSolver* solver, const std::string& member,
                              const Qubo& qubo, const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(SampleSet samples, solver->Solve(qubo, options));
  if (samples.empty()) {
    return Status::Internal(StrFormat(
        "solver '%s' returned an empty sample set", member.c_str()));
  }
  return samples;
}

/// Builds one backend per member name, annotating failures with the member
/// they belong to (the registry error alone names only itself). Backend
/// construction can be non-trivial — an "embedded:*" member builds its
/// topology graph — so callers keep and reuse the result.
Result<std::vector<std::unique_ptr<QuboSolver>>> CreateMemberSolvers(
    const std::vector<std::string>& members) {
  std::vector<std::unique_ptr<QuboSolver>> solvers;
  solvers.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    Result<std::unique_ptr<QuboSolver>> solver =
        SolverRegistry::Global().Create(members[i]);
    if (!solver.ok()) {
      return AnnotateMemberError(solver.status(), i, members[i],
                                 "race member");
    }
    solvers.push_back(std::move(solver).value());
  }
  return solvers;
}

}  // namespace

Result<RaceOutcome> RaceMemberSolvers(const std::vector<std::string>& members,
                                      const std::vector<QuboSolver*>& solvers,
                                      const Qubo& qubo,
                                      const SolverOptions& options,
                                      int num_threads,
                                      const std::string& member_label) {
  if (members.empty()) {
    return Status::InvalidArgument("a race needs at least one member backend");
  }
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));

  const size_t n = members.size();
  std::vector<Result<SampleSet>> results(n, Status::Internal("not raced"));
  // Each member solves with its own derived seed — results are independent
  // of which slot ran which member. The shared pool's caller-participating
  // ForEach cannot deadlock when this race runs inside another pool task
  // (a SolveBatchParallel slot, a service drainer): worst case the calling
  // thread races every member itself.
  ThreadPool::Shared().ForEach(
      static_cast<int>(n), num_threads,
      [&members, &solvers, &qubo, &options, &results](int, int i) {
        results[i] = SolveMember(solvers[i], members[i], qubo,
                                 DeriveBatchOptions(options, i));
      });

  // Deterministic winner scan: strictly lower best energy wins; equal best
  // energies keep the earlier member (backend-order tie-break). Failed
  // members are dropped — hedging across unreliable backends is the point —
  // unless every member failed.
  int winner = -1;
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].ok()) continue;
    if (winner < 0 ||
        results[i]->best().energy < results[winner]->best().energy) {
      winner = static_cast<int>(i);
    }
  }
  if (winner < 0) {
    for (size_t i = 0; i < n; ++i) {
      if (!results[i].ok()) {
        return AnnotateMemberError(results[i].status(), i, members[i],
                                   member_label);
      }
    }
  }
  RaceOutcome outcome;
  outcome.winner = winner;
  outcome.samples = std::move(results[winner]).value();
  return outcome;
}

Result<SampleSet> SolveRaceParallel(const std::vector<std::string>& members,
                                    const Qubo& qubo,
                                    const SolverOptions& options,
                                    int num_threads) {
  if (members.empty()) {
    return Status::InvalidArgument("a race needs at least one member backend");
  }
  // Resolve every member up front: unknown names surface before any fan-out,
  // and the constructed backends are what the race runs on.
  QDM_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<QuboSolver>> solvers,
                       CreateMemberSolvers(members));
  std::vector<QuboSolver*> raw;
  raw.reserve(solvers.size());
  for (const auto& solver : solvers) raw.push_back(solver.get());
  QDM_ASSIGN_OR_RETURN(RaceOutcome outcome,
                       RaceMemberSolvers(members, raw, qubo, options,
                                         num_threads));
  return std::move(outcome.samples);
}

PortfolioSolver::PortfolioSolver(
    std::string registry_name, std::vector<std::string> members,
    std::vector<std::unique_ptr<QuboSolver>> member_solvers)
    : registry_name_(std::move(registry_name)),
      members_(std::move(members)),
      member_solvers_(std::move(member_solvers)) {
  QDM_CHECK(!members_.empty()) << "portfolio " << registry_name_
                               << " has no members";
  QDM_CHECK(member_solvers_.empty() ||
            member_solvers_.size() == members_.size())
      << "portfolio " << registry_name_
      << " member backends do not align with its member names";
}

Status PortfolioSolver::EnsureMemberSolvers() {
  if (!member_solvers_.empty()) return Status::Ok();
  QDM_ASSIGN_OR_RETURN(member_solvers_, CreateMemberSolvers(members_));
  return Status::Ok();
}

Result<SampleSet> PortfolioSolver::Solve(const Qubo& qubo,
                                         const SolverOptions& options) {
  // Member backends are built once per PortfolioSolver and reused across
  // Solve calls (a QuboSolver instance is never shared across threads, and
  // within one race each member runs on exactly one task).
  QDM_RETURN_IF_ERROR(EnsureMemberSolvers());
  std::vector<QuboSolver*> raw;
  raw.reserve(member_solvers_.size());
  for (const auto& solver : member_solvers_) raw.push_back(solver.get());
  // Members hedge across the shared pool, uncapped.
  QDM_ASSIGN_OR_RETURN(
      RaceOutcome outcome,
      RaceMemberSolvers(members_, raw, qubo, options, /*num_threads=*/0));
  return std::move(outcome.samples);
}

Result<std::unique_ptr<QuboSolver>> MakePortfolioSolver(
    const std::string& name) {
  const std::string kPrefix = "race:";
  if (!StartsWith(name, kPrefix)) {
    return Status::InvalidArgument(
        StrFormat("portfolio solver name '%s' must start with '%s'",
                  name.c_str(), kPrefix.c_str()));
  }
  const std::vector<std::string> members =
      StrSplit(name.substr(kPrefix.size()), '+');
  if (members.size() < 2) {
    return Status::InvalidArgument(StrFormat(
        "portfolio solver name '%s' needs at least two '+'-separated "
        "members ('race:<b1>+<b2>[+...]'); a race of one is just that "
        "backend",
        name.c_str()));
  }
  std::vector<std::unique_ptr<QuboSolver>> member_solvers;
  member_solvers.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].empty()) {
      return Status::InvalidArgument(StrFormat(
          "portfolio solver name '%s' has an empty member at position %zu",
          name.c_str(), i));
    }
    if (StartsWith(members[i], kPrefix)) {
      return Status::InvalidArgument(StrFormat(
          "nested race backends are not supported ('%s' inside '%s'): '+' "
          "would be ambiguous",
          members[i].c_str(), name.c_str()));
    }
    if (StartsWith(members[i], "adaptive:")) {
      return Status::InvalidArgument(StrFormat(
          "adaptive backends cannot be race members ('%s' inside '%s'): '+' "
          "would be ambiguous",
          members[i].c_str(), name.c_str()));
    }
    // Resolve (not just Contains) so a member's real diagnosis survives —
    // e.g. a malformed embedded topology spec stays InvalidArgument with
    // the spec error instead of collapsing into a generic NotFound. The
    // built backend is handed to the portfolio and reused by its races.
    Result<std::unique_ptr<QuboSolver>> member_solver =
        SolverRegistry::Global().Create(members[i]);
    if (!member_solver.ok()) {
      return Status(member_solver.status().code(),
                    StrFormat("portfolio solver '%s' member '%s': %s",
                              name.c_str(), members[i].c_str(),
                              member_solver.status().message().c_str()));
    }
    member_solvers.push_back(std::move(member_solver).value());
  }
  return std::unique_ptr<QuboSolver>(std::make_unique<PortfolioSolver>(
      name, members, std::move(member_solvers)));
}

bool RegisterPortfolioSolvers() {
  auto& registry = SolverRegistry::Global();
  // Any well-formed "race:<b1>+<b2>+..." name resolves on demand.
  (void)registry.RegisterPrefix("race:", MakePortfolioSolver);
  // Eagerly register the canonical portfolio so it shows up in
  // RegisteredNames() (and is covered by the every-registered-backend
  // tests). AlreadyExists on re-entry is expected and harmless.
  const char* kDefault = "race:simulated_annealing+tabu_search";
  (void)registry.Register(kDefault, [kDefault] {
    Result<std::unique_ptr<QuboSolver>> solver = MakePortfolioSolver(kDefault);
    QDM_CHECK(solver.ok()) << "default portfolio backend '" << kDefault
                           << "' failed to build: " << solver.status();
    return std::move(solver).value();
  });
  return true;
}

namespace {
[[maybe_unused]] const bool kPortfolioSolversRegistered =
    RegisterPortfolioSolvers();
}  // namespace

}  // namespace anneal
}  // namespace qdm
