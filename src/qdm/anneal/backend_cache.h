#ifndef QDM_ANNEAL_BACKEND_CACHE_H_
#define QDM_ANNEAL_BACKEND_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "qdm/anneal/embedding.h"
#include "qdm/anneal/topology.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {

/// Process-wide immutable cache for the expensive construction artifacts
/// behind "embedded:<base>:<topology>" backend creation: HardwareTopology
/// graphs and their clique-embedding plans. The batch substrate went from
/// one backend per *instance* to one backend per fan-out *slot* (solver.h,
/// SolveBatchParallel), but slots still each Create their own backend —
/// this cache is what makes that creation a shared_ptr lookup after first
/// use instead of re-running the TRIAD construction per slot.
///
/// Semantics:
///
///  - Immutable and eviction-free: entries are shared as
///    shared_ptr<const T>, never mutated, never dropped for the process
///    lifetime. Returning the SAME pointer for the same key is part of the
///    contract (tests pin it); concurrent consumers need no copies.
///  - Single construction: the cache lock is held across a miss's
///    construction, so N threads first-touching the same spec produce
///    exactly one topology (TSan-clean; constructions are pure and
///    bounded, so the critical section is acceptable and first-touch-only).
///  - Errors are not cached: a malformed spec reports its InvalidArgument
///    every time (diagnosis is cheap; only successes are expensive).
///  - Spec aliasing: a topology is stored under the spec it was requested
///    with AND under its canonical name() ("zephyr:4" parses to
///    "zephyr:4x4"), so alias spellings share one instance after first use.
///
/// Determinism: topologies and clique embeddings are pure functions of
/// their spec/(spec, n) keys, so a cache hit is bit-identical to a fresh
/// construction — batch results cannot depend on cache state.

/// Counters for the cache-effectiveness perf-gate metric and tests. Hit and
/// construction counts are exact and deterministic for a fixed workload:
/// a regression back to per-instance backend construction shows up as a
/// topology_hits jump at fixed seed (bench_hardware_constraints gates it).
struct BackendCacheStats {
  uint64_t topology_constructions = 0;
  uint64_t topology_hits = 0;
  uint64_t embedding_constructions = 0;
  uint64_t embedding_hits = 0;
};

/// MakeTopology behind the cache: parses and builds on first use, then
/// returns the shared instance for `spec` (or any alias of it). Errors pass
/// through MakeTopology's taxonomy uncached.
Result<std::shared_ptr<const HardwareTopology>> GetCachedTopology(
    const std::string& spec);

/// CliqueEmbedding behind the cache, keyed by (topology->name(), n).
/// `topology` does not have to come from GetCachedTopology — the canonical
/// name keys the plan — but cached topologies keep the key space shared.
/// ResourceExhausted (n beyond capacity) passes through uncached.
Result<std::shared_ptr<const Embedding>> GetCachedCliqueEmbedding(
    int num_logical, const HardwareTopology& topology);

/// Snapshot of the process-wide counters (monotone since process start).
BackendCacheStats GetBackendCacheStats();

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_BACKEND_CACHE_H_
