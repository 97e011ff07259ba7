#include "qdm/anneal/solver.h"

#include <algorithm>
#include <utility>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/parallel_tempering.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/tabu_search.h"
#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

Status AnnotateBatchInstanceError(const Status& status, size_t index,
                                  size_t batch_size) {
  if (batch_size <= 1) return status;
  return Status(status.code(), StrFormat("batch instance %zu: %s", index,
                                         status.message().c_str()));
}

Result<std::vector<Sample>> BestOfEach(const std::vector<SampleSet>& sets,
                                       const std::string& solver_name) {
  std::vector<Sample> best;
  best.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    if (sets[i].empty()) {
      return AnnotateBatchInstanceError(
          Status::Internal(StrFormat("solver '%s' returned an empty sample "
                                     "set",
                                     solver_name.c_str())),
          i, sets.size());
    }
    best.push_back(sets[i].best());
  }
  return best;
}

SolverOptions DeriveBatchOptions(const SolverOptions& options, size_t index) {
  SolverOptions derived = options;
  derived.seed = options.seed + static_cast<uint64_t>(index);
  return derived;
}

Result<std::vector<SampleSet>> QuboSolver::SolveBatch(
    const std::vector<Qubo>& qubos, const SolverOptions& options) {
  std::vector<SampleSet> results;
  results.reserve(qubos.size());
  for (size_t i = 0; i < qubos.size(); ++i) {
    Result<SampleSet> result = Solve(qubos[i], DeriveBatchOptions(options, i));
    if (!result.ok()) {
      return AnnotateBatchInstanceError(result.status(), i, qubos.size());
    }
    results.push_back(std::move(result).value());
  }
  return results;
}

Result<std::vector<SampleSet>> QuboSolver::SolveBatchThreaded(
    const std::vector<Qubo>& qubos, const SolverOptions& options,
    int num_threads) {
  // Default: the sequential reference. Only whole-batch backends
  // (SolvesWholeBatch() == true) override this with a parallel schedule.
  (void)num_threads;
  return SolveBatch(qubos, options);
}

Result<std::vector<SampleSet>> SolveBatchParallel(
    const std::string& solver_name, const std::vector<Qubo>& qubos,
    const SolverOptions& options, int num_threads) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (num_threads <= 0) num_threads = ThreadPool::DefaultNumThreads();
  // The first backend is built before any fan-out, so an unknown name fails
  // even on an empty batch.
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> first,
                       SolverRegistry::Global().Create(solver_name));
  // A backend with cross-instance Solve state (the adaptive:* selector)
  // orchestrates the whole batch itself so its schedule cannot depend on
  // which slot drained which instance.
  if (first->SolvesWholeBatch()) {
    return first->SolveBatchThreaded(qubos, options, num_threads);
  }
  // One backend per ForEach SLOT, not per instance: construction is not
  // assumed trivial — an embedded:* backend builds a topology graph (now
  // amortized by backend_cache.h, but still not free) — so each slot reuses
  // one backend across every instance it drains. That reuse is sound
  // because a slot never runs two bodies at once and Solve is required to
  // be a pure function of (qubo, options) on this path. ForEach's slots
  // stay below min(n, num_threads), so that many backends cover them.
  const int n = static_cast<int>(qubos.size());
  std::vector<std::unique_ptr<QuboSolver>> backends;
  backends.push_back(std::move(first));
  while (static_cast<int>(backends.size()) < std::min(n, num_threads)) {
    QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> backend,
                         SolverRegistry::Global().Create(solver_name));
    backends.push_back(std::move(backend));
  }
  std::vector<SampleSet> results(n);
  std::vector<Status> statuses(n);
  ThreadPool::Shared().ForEach(n, num_threads, [&](int slot, int i) {
    Result<SampleSet> result =
        backends[slot]->Solve(qubos[i], DeriveBatchOptions(options, i));
    if (result.ok()) {
      results[i] = std::move(result).value();
    } else {
      statuses[i] = result.status();
    }
  });
  for (int i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return AnnotateBatchInstanceError(statuses[i], i, n);
  }
  return results;
}

Rng SolverRng(const SolverOptions& options, uint64_t offset) {
  const uint64_t seed = options.seed != 0 ? options.seed : Rng::kDefaultSeed;
  return Rng(seed + offset);
}

Status ValidateSolverOptions(const SolverOptions& options) {
  if (options.num_reads <= 0) {
    return Status::InvalidArgument(
        StrFormat("num_reads must be positive, got %d", options.num_reads));
  }
  // The inverse-temperature ladder is auto-scaled when unset (both <= 0);
  // a half-set pair is a misuse the annealing backends would otherwise turn
  // into an abort (simulated_annealing) or NaN betas (parallel_tempering).
  const bool min_set = options.beta_min > 0.0;
  const bool max_set = options.beta_max > 0.0;
  if (options.beta_min < 0.0 || options.beta_max < 0.0) {
    return Status::InvalidArgument(
        StrFormat("beta_min/beta_max must be non-negative, got %g/%g",
                  options.beta_min, options.beta_max));
  }
  if (min_set != max_set) {
    return Status::InvalidArgument(StrFormat(
        "beta_min and beta_max must be set together (got %g/%g); leave both "
        "at 0 for auto-scaling",
        options.beta_min, options.beta_max));
  }
  if (min_set && options.beta_min > options.beta_max) {
    return Status::InvalidArgument(
        StrFormat("beta_min (%g) must not exceed beta_max (%g)",
                  options.beta_min, options.beta_max));
  }
  return Status::Ok();
}

namespace {

class SimulatedAnnealingSolver : public QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
    AnnealSchedule schedule;
    if (options.num_sweeps > 0) schedule.num_sweeps = options.num_sweeps;
    schedule.beta_min = options.beta_min;
    schedule.beta_max = options.beta_max;
    SimulatedAnnealer annealer(schedule);
    Rng rng = SolverRng(options);
    return annealer.SampleQubo(qubo, options.num_reads, &rng);
  }
  std::string name() const override { return "simulated_annealing"; }
};

class ParallelTemperingSolver : public QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
    // A ladder needs two rungs; 0 (and any negative) keeps the default.
    if (options.num_replicas == 1) {
      return Status::InvalidArgument(
          "parallel_tempering needs num_replicas >= 2, got 1 (0 means the "
          "default)");
    }
    ParallelTempering::Options pt;
    if (options.num_replicas > 0) pt.num_replicas = options.num_replicas;
    if (options.num_sweeps > 0) pt.num_sweeps = options.num_sweeps;
    if (options.swap_interval > 0) pt.swap_interval = options.swap_interval;
    pt.beta_min = options.beta_min;
    pt.beta_max = options.beta_max;
    ParallelTempering sampler(pt);
    Rng rng = SolverRng(options);
    return sampler.SampleQubo(qubo, options.num_reads, &rng);
  }
  std::string name() const override { return "parallel_tempering"; }
};

class TabuSearchSolver : public QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
    TabuSearch::Options tabu;
    if (options.max_iterations > 0) {
      tabu.max_iterations = options.max_iterations;
    }
    if (options.tenure > 0) tabu.tenure = options.tenure;
    TabuSearch sampler(tabu);
    Rng rng = SolverRng(options);
    return sampler.SampleQubo(qubo, options.num_reads, &rng);
  }
  std::string name() const override { return "tabu_search"; }
};

class ExactQuboSolver : public QuboSolver {
 public:
  static constexpr int kMaxVariables = 30;

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
    if (qubo.num_variables() > kMaxVariables) {
      return Status::InvalidArgument(StrFormat(
          "exact solver enumerates 2^n assignments; %d variables exceed the "
          "%d-variable limit",
          qubo.num_variables(), kMaxVariables));
    }
    // Enumeration draws no randomness.
    ExactSolver solver;
    return solver.SampleQubo(qubo, options.num_reads, /*rng=*/nullptr);
  }
  std::string name() const override { return "exact"; }
};

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

SolverRegistry::SolverRegistry() {
  factories_["simulated_annealing"] = [] {
    return std::make_unique<SimulatedAnnealingSolver>();
  };
  factories_["parallel_tempering"] = [] {
    return std::make_unique<ParallelTemperingSolver>();
  };
  factories_["tabu_search"] = [] {
    return std::make_unique<TabuSearchSolver>();
  };
  factories_["exact"] = [] { return std::make_unique<ExactQuboSolver>(); };
}

Status SolverRegistry::Register(const std::string& name, Factory factory) {
  QDM_CHECK(factory != nullptr) << "null factory for solver " << name;
  std::lock_guard<std::mutex> lock(mutex_);
  if (factories_.count(name) > 0) {
    return Status::AlreadyExists(
        StrFormat("solver '%s' is already registered", name.c_str()));
  }
  factories_[name] = std::move(factory);
  return Status::Ok();
}

Status SolverRegistry::RegisterPrefix(const std::string& prefix,
                                      DynamicFactory factory) {
  QDM_CHECK(factory != nullptr) << "null dynamic factory for " << prefix;
  QDM_CHECK(!prefix.empty());
  std::lock_guard<std::mutex> lock(mutex_);
  if (prefix_factories_.count(prefix) > 0) {
    return Status::AlreadyExists(
        StrFormat("solver prefix '%s' is already registered", prefix.c_str()));
  }
  prefix_factories_[prefix] = std::move(factory);
  return Status::Ok();
}

bool SolverRegistry::Contains(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (factories_.count(name) > 0) return true;
  }
  // Fall back to the prefix resolvers: a name they accept is creatable and
  // therefore "contained". Create() copies the resolver and invokes it
  // outside the lock, so resolvers may re-enter the registry.
  return Create(name).ok();
}

std::vector<std::string> SolverRegistry::RegisteredNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

Result<std::unique_ptr<QuboSolver>> SolverRegistry::Create(
    const std::string& name) const {
  Factory factory;
  DynamicFactory dynamic;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(name);
    if (it != factories_.end()) {
      factory = it->second;
    } else {
      // Longest matching prefix wins; invoked outside the lock below so the
      // resolver may re-enter the registry (e.g. to validate a base name).
      size_t best_len = 0;
      for (const auto& [prefix, resolver] : prefix_factories_) {
        if (prefix.size() >= best_len && StartsWith(name, prefix)) {
          best_len = prefix.size();
          dynamic = resolver;
        }
      }
    }
  }
  if (factory != nullptr) return factory();
  if (dynamic != nullptr) return dynamic(name);
  return Status::NotFound(StrFormat(
      "no QUBO solver registered under '%s' (registered: %s)", name.c_str(),
      StrJoin(RegisteredNames(), ", ").c_str()));
}

Result<SampleSet> SolveWith(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> solver,
                       SolverRegistry::Global().Create(solver_name));
  return solver->Solve(qubo, options);
}

Result<Sample> SolveForBest(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(SampleSet samples,
                       SolveWith(solver_name, qubo, options));
  if (samples.empty()) {
    return Status::Internal(StrFormat(
        "solver '%s' returned an empty sample set", solver_name.c_str()));
  }
  return samples.best();
}

}  // namespace anneal
}  // namespace qdm
