#ifndef QDM_ANNEAL_SOLVER_H_
#define QDM_ANNEAL_SOLVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qdm/anneal/embedding.h"
#include "qdm/anneal/noise_spec.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {

/// Backend-neutral configuration for QuboSolver::Solve / SolveBatch calls.
///
/// Zero-means-default convention: every tuning knob treats its zero value
/// ("0", "0.0") as "use the backend's built-in default" — callers set only
/// the knobs they care about and hand the same struct to interchangeable
/// backends. Each backend reads only the knobs it understands and silently
/// ignores the rest. The per-knob rules:
///
///   num_reads        > 0 required (no zero-default; 0 is InvalidArgument).
///   seed             see below — not a zero-defaulted knob.
///   num_sweeps       0 = backend default sweep count (annealing family).
///   beta_min/beta_max both 0 = auto-scale the inverse-temperature ladder
///                    from the problem; setting only one of the pair, or a
///                    negative value, or beta_min > beta_max is
///                    InvalidArgument (never an abort).
///   num_replicas     0 = parallel_tempering's default replica count.
///   swap_interval    0 = parallel_tempering's default swap cadence.
///   max_iterations   0 = tabu_search's default iteration budget.
///   tenure           0 = tabu_search's default tabu tenure.
///   layers           0 = default circuit depth (qaoa/vqe).
///   restarts         0 = default optimizer restarts (qaoa/vqe).
///   max_qubits       0 = backend default state-vector guard; a positive
///                    value moves the guard but is always clamped to the
///                    26-qubit diagonal cap. Oversized problems are rejected
///                    with InvalidArgument.
///   chain_strength   0.0 = auto-scale from the logical model (twice the
///                    largest |Ising coefficient|); negative is
///                    InvalidArgument. Read only by embedded:* backends.
///   chain_break_policy  zero enumerator kMajorityVote is the default;
///                    read only by embedded:* backends.
///   noise            default-constructed NoiseSpec (channel kNone) = exact
///                    noiseless simulation. Read only by the gate-based
///                    bridges (qaoa/vqe/grover_min), which then sample
///                    through the sim/ noise machinery and surface a
///                    noise_fidelity on the SampleSet; classical backends
///                    ignore it like any other unknown knob. Normally set
///                    via the `noisy:<model>:<base>` registry family
///                    rather than by hand (docs/noise.md).
///
/// Randomness: `seed` is the only source of solver randomness — every solve
/// is a pure function of (qubo, options). The solver seeds a local Rng from
/// it (see SolverRng; seed 0 means the library's fixed default seed). Batch
/// entry points derive a distinct per-instance seed (see
/// DeriveBatchOptions).
struct SolverOptions {
  /// Number of solutions drawn (ground-truth solvers may return fewer).
  int num_reads = 10;

  uint64_t seed = 0;

  // -- Annealing family (simulated_annealing, parallel_tempering) ------------
  int num_sweeps = 0;
  double beta_min = 0.0;
  double beta_max = 0.0;
  int num_replicas = 0;
  int swap_interval = 0;

  // -- Tabu search -----------------------------------------------------------
  int max_iterations = 0;
  int tenure = 0;

  // -- Gate-based bridges (qaoa, vqe, grover_min) ----------------------------
  int layers = 0;
  int restarts = 0;
  int max_qubits = 0;

  // -- Embedded hardware-topology backends (embedded:<base>:<topology>) ------
  double chain_strength = 0.0;
  ChainBreakPolicy chain_break_policy = ChainBreakPolicy::kMajorityVote;

  // -- Noisy gate-based simulation (noisy:<model>:<base>) --------------------
  NoiseSpec noise{};
};

/// Strategy interface of the hybrid quantum/classical architecture (Figure 2
/// of the paper; cf. Hai et al. and Zajac & Stoerl): data management
/// applications reformulate their problem as a Qubo and dispatch it — via
/// the shared qopt::QuboPipeline encode→dispatch→decode helper — to an
/// interchangeable backend obtained *by name* from the SolverRegistry; they
/// never instantiate a concrete solver class. Backends report misuse (e.g. a
/// problem too large for the method) as an error Status rather than dying.
class QuboSolver {
 public:
  virtual ~QuboSolver() = default;

  virtual Result<SampleSet> Solve(const Qubo& qubo,
                                  const SolverOptions& options) = 0;

  /// Solves a batch of independent instances. Contract (which overrides must
  /// preserve so the parallel fan-out stays interchangeable with this
  /// sequential reference):
  ///
  ///  - Ordering: result[i] is the SampleSet for qubos[i]; the output vector
  ///    has exactly qubos.size() entries on success.
  ///  - Randomness: instance i is solved with DeriveBatchOptions(options,
  ///    i) — i.e. seed + i — making the batch a pure function of (qubos,
  ///    options) independent of execution order or thread count.
  ///  - Partial failure: all-or-nothing. The Status of the lowest-index
  ///    failing instance is returned, annotated "batch instance <i>:" when
  ///    the batch has more than one instance (a batch of one reports the
  ///    bare underlying error, so the single-shot batch-of-one wrappers
  ///    keep their original messages), and no partial results are exposed.
  ///    Instances after a failure may or may not have been attempted.
  virtual Result<std::vector<SampleSet>> SolveBatch(
      const std::vector<Qubo>& qubos, const SolverOptions& options);

  /// Whole-batch orchestration hook. SolveBatchParallel's fan-out reuses one
  /// backend per ForEach slot and assigns instances to slots dynamically,
  /// which requires Solve to be a pure function of (qubo, options). A
  /// backend whose Solve carries state across calls — the adaptive:*
  /// selector's explore/commit counter is the in-tree case — returns true
  /// here, and SolveBatchParallel hands it the WHOLE batch via
  /// SolveBatchThreaded so the backend can keep its cross-instance schedule
  /// deterministic while still parallelizing internally. Wrappers around
  /// such a backend must forward both hooks (see NoisySolver).
  virtual bool SolvesWholeBatch() const { return false; }

  /// Batch entry with a thread budget, used by SolveBatchParallel when
  /// SolvesWholeBatch() is true. Overrides must preserve the SolveBatch
  /// contract above plus the parallel fan-out's guarantee: results
  /// bit-identical for every num_threads value, which caps the call's
  /// width exactly as in SolveBatchParallel (<= 0 meaning
  /// ThreadPool::DefaultNumThreads()). The default ignores num_threads and
  /// runs the sequential SolveBatch reference.
  virtual Result<std::vector<SampleSet>> SolveBatchThreaded(
      const std::vector<Qubo>& qubos, const SolverOptions& options,
      int num_threads);

  /// Registry key and report-table label ("simulated_annealing", ...).
  virtual std::string name() const = 0;
};

/// Process-global name -> solver factory table. The four anneal-layer
/// backends (simulated_annealing, parallel_tempering, tabu_search, exact)
/// register themselves on first access; higher layers add more via static
/// registrars, which is why the build links qdm as an object library (the
/// gate-based bridges in qdm/algo register qaoa, vqe, and grover_min; the
/// embedded hardware-topology backends in qdm/anneal/embedded_solver.cc
/// register a default "embedded:<base>:<topology>" set plus the "embedded:"
/// prefix resolver; the portfolio backends in qdm/anneal/portfolio_solver.cc
/// register "race:simulated_annealing+tabu_search" plus the "race:" prefix
/// resolver).
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<QuboSolver>()>;
  /// Builds a solver from a full name that was not exactly registered; used
  /// for parameterized families. Returns an error to reject the name (e.g.
  /// a malformed topology spec) — the error is surfaced verbatim by Create.
  using DynamicFactory =
      std::function<Result<std::unique_ptr<QuboSolver>>(const std::string&)>;

  static SolverRegistry& Global();

  /// Fails with AlreadyExists when `name` is taken.
  Status Register(const std::string& name, Factory factory);

  /// Registers a resolver for every name starting with `prefix` that has no
  /// exact registration ("embedded:" is the in-tree user). Exact entries
  /// always win; when several prefixes match, the longest wins. Fails with
  /// AlreadyExists when `prefix` is taken.
  Status RegisterPrefix(const std::string& prefix, DynamicFactory factory);

  /// True when `name` is exactly registered or a prefix resolver accepts it
  /// (the resolver is invoked, so this constructs and discards a backend —
  /// cheap for the plain solvers, and kept cheap for embedded:* by the
  /// topology/embedding cache in backend_cache.h; prefer Create when the
  /// instance is wanted anyway).
  bool Contains(const std::string& name) const;

  /// Exactly-registered names, sorted. Prefix-resolved families are
  /// represented by their eagerly-registered defaults only: the name space
  /// of e.g. "embedded:*" is unbounded and cannot be enumerated.
  std::vector<std::string> RegisteredNames() const;

  /// Instantiates the backend registered under `name`, falling back to the
  /// longest matching prefix resolver; NotFound (listing the registered
  /// names) when nothing matches.
  Result<std::unique_ptr<QuboSolver>> Create(const std::string& name) const;

 private:
  SolverRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
  std::map<std::string, DynamicFactory> prefix_factories_;
};

/// One-shot convenience: Create(solver_name) then Solve.
Result<SampleSet> SolveWith(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options);

/// Like SolveWith, but returns only the lowest-energy sample and converts an
/// empty sample set into an Internal error. (The qopt applications now share
/// this tail through qopt::QuboPipeline, which uses the batch sibling
/// BestOfEach; this single-shot form remains for direct registry users.)
Result<Sample> SolveForBest(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options);

// -- Batched solving ----------------------------------------------------------

/// Registry-level batch entry point: creates backend(s) registered under
/// `solver_name` and solves all `qubos` on the process-wide
/// ThreadPool::Shared() through its capped ForEach — the calling thread
/// plus pool helpers; no call spawns a thread.
///
///  - num_threads is a per-call cap on how many threads solve at once, the
///    caller included: at most min(num_threads, batch size, pool width + 1).
///    num_threads <= 0 means ThreadPool::DefaultNumThreads(); 1 is strictly
///    sequential, in instance order, on the calling thread.
///  - One backend instance per ForEach SLOT, reused across every instance
///    that slot drains (QuboSolver implementations are not required to be
///    thread-safe, and a slot never runs two instances at once). Backends
///    that report SolvesWholeBatch() are instead handed the whole batch
///    once via SolveBatchThreaded (see QuboSolver).
///
/// Determinism guarantee: instance i is always solved with seed
/// options.seed + i, so the returned SampleSets are bit-identical for every
/// num_threads value. Error semantics follow QuboSolver::SolveBatch
/// (all-or-nothing, lowest failing index reported).
Result<std::vector<SampleSet>> SolveBatchParallel(
    const std::string& solver_name, const std::vector<Qubo>& qubos,
    const SolverOptions& options, int num_threads = 0);

/// The per-instance options a batch entry solves instance `index` with:
/// identical knobs and seed = options.seed + index (wrapping uint64
/// arithmetic). Exposed so SolveBatch overrides and tests can
/// reproduce exactly what the default implementations do.
SolverOptions DeriveBatchOptions(const SolverOptions& options, size_t index);

/// Prefixes a per-instance failure with its batch position ("batch instance
/// <i>: ..."), preserving the original code so callers can still dispatch on
/// it. Batches of one keep the bare error: the single-shot entry points are
/// batch-of-one wrappers and their callers never asked for batch framing.
/// Exposed so SolveBatchThreaded overrides frame their per-instance errors
/// exactly like the sequential reference.
Status AnnotateBatchInstanceError(const Status& status, size_t index,
                                  size_t batch_size);

/// Maps each SampleSet of a batch to its lowest-energy sample, converting an
/// empty set into an Internal error naming the batch instance — the batch
/// sibling of SolveForBest and the shared tail of qopt::QuboPipeline (and
/// therefore of every qopt entry point, single-shot and batched alike).
Result<std::vector<Sample>> BestOfEach(const std::vector<SampleSet>& sets,
                                       const std::string& solver_name);

// -- Helpers for QuboSolver implementations ----------------------------------

/// The Rng a backend draws from: seeded options.seed + offset, with seed 0
/// first mapped to Rng::kDefaultSeed (wrapping uint64 arithmetic). Shared by
/// every backend — and, with offset = shot index, by the per-shot noisy
/// sampling streams — so seed semantics cannot diverge between the
/// annealing and gate-based families.
Rng SolverRng(const SolverOptions& options, uint64_t offset = 0);

/// Validates the backend-independent knobs: num_reads must be positive, and
/// the inverse-temperature ladder must be either fully unset (auto-scaling)
/// or a non-negative pair with beta_min <= beta_max — half-set or inverted
/// ladders are rejected.
Status ValidateSolverOptions(const SolverOptions& options);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_SOLVER_H_
