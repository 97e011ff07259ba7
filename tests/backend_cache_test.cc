// The process-wide backend construction cache (backend_cache.h): cache hits
// return the IDENTICAL topology/embedding instance (pointer equality, not
// just structural equality), concurrent first-touch from many threads
// yields exactly one construction, alias spellings share one instance,
// entries are immutable and never evicted, the error taxonomy passes
// through uncached, and cached artifacts are bit-identical to freshly
// built ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/solver.h"
#include "qdm/anneal/topology.h"
#include "qdm/common/status.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {
namespace {

TEST(BackendCacheTest, HitReturnsIdenticalTopologyPointer) {
  auto first = GetCachedTopology("chimera:3x3x4");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = GetCachedTopology("chimera:3x3x4");
  ASSERT_TRUE(second.ok()) << second.status();
  // The contract is sharing, not equality: the same shared_ptr comes back.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->name(), "chimera:3x3x4");
}

TEST(BackendCacheTest, AliasSpellingsShareOneInstance) {
  // "zephyr:5" parses to canonical "zephyr:5x4"; both spellings must hit
  // the same cached instance (whichever spelling came first).
  auto shorthand = GetCachedTopology("zephyr:5");
  ASSERT_TRUE(shorthand.ok()) << shorthand.status();
  ASSERT_EQ((*shorthand)->name(), "zephyr:5x4");
  auto canonical = GetCachedTopology("zephyr:5x4");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_EQ(shorthand->get(), canonical->get());
}

TEST(BackendCacheTest, ConcurrentFirstTouchConstructsOnce) {
  // 8 threads race the first touch of a spec no other test uses. The
  // construction counter must advance by exactly one, and every thread
  // must observe the same instance.
  const std::string spec = "chimera:5x5x4";
  const BackendCacheStats before = GetBackendCacheStats();
  std::vector<std::shared_ptr<const HardwareTopology>> seen(8);
  ThreadPool pool(8);  // Its 7 helpers + the caller: 8 racing threads.
  pool.ForEach(8, 0, [&seen, &spec](int, int i) {
    auto topology = GetCachedTopology(spec);
    QDM_CHECK(topology.ok()) << topology.status();
    seen[i] = std::move(topology).value();
  });
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.topology_constructions - before.topology_constructions, 1u);
  EXPECT_EQ(after.topology_hits - before.topology_hits, 7u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
}

TEST(BackendCacheTest, ConcurrentFirstTouchEmbeddingConstructsOnce) {
  auto topology = GetCachedTopology("pegasus:4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  // A problem size no other test asks pegasus:4 for.
  const int num_logical = 11;
  const BackendCacheStats before = GetBackendCacheStats();
  std::vector<std::shared_ptr<const Embedding>> seen(8);
  ThreadPool pool(8);  // Its 7 helpers + the caller: 8 racing threads.
  pool.ForEach(8, 0, [&seen, &topology, num_logical](int, int i) {
    auto plan = GetCachedCliqueEmbedding(num_logical, **topology);
    QDM_CHECK(plan.ok()) << plan.status();
    seen[i] = std::move(plan).value();
  });
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.embedding_constructions - before.embedding_constructions,
            1u);
  EXPECT_EQ(after.embedding_hits - before.embedding_hits, 7u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
  EXPECT_EQ(seen[0]->num_logical(), num_logical);
}

TEST(BackendCacheTest, CachedEmbeddingMatchesFreshConstruction) {
  auto topology = GetCachedTopology("chimera:4x4x4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  auto cached = GetCachedCliqueEmbedding(6, **topology);
  ASSERT_TRUE(cached.ok()) << cached.status();
  auto fresh = CliqueEmbedding(6, **topology);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ((*cached)->chains, fresh->chains);
}

TEST(BackendCacheTest, EvictionFreeImmutability) {
  // The instance observed on first touch is still the instance served
  // after arbitrary other traffic — nothing is evicted or rebuilt.
  auto first = GetCachedTopology("chimera:2x2x4");
  ASSERT_TRUE(first.ok()) << first.status();
  const HardwareTopology* raw = first->get();
  const int qubits = raw->num_qubits();
  for (const char* spec : {"chimera:4x4x4", "pegasus:6", "zephyr:4",
                           "chimera:2x2x4", "pegasus:4"}) {
    auto other = GetCachedTopology(spec);
    ASSERT_TRUE(other.ok()) << spec << ": " << other.status();
  }
  auto again = GetCachedTopology("chimera:2x2x4");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->get(), raw);
  EXPECT_EQ((*again)->num_qubits(), qubits);
}

TEST(BackendCacheTest, MalformedSpecsPassThroughUncached) {
  const BackendCacheStats before = GetBackendCacheStats();
  for (const char* spec :
       {"torus:9", "chimera:4x4", "pegasus:1", "zephyr:0", ""}) {
    auto result = GetCachedTopology(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  const BackendCacheStats after = GetBackendCacheStats();
  // Errors neither construct nor hit.
  EXPECT_EQ(after.topology_constructions, before.topology_constructions);
  EXPECT_EQ(after.topology_hits, before.topology_hits);
}

TEST(BackendCacheTest, OversizedEmbeddingPassesThroughUncached) {
  auto topology = GetCachedTopology("chimera:1x1x4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  auto plan =
      GetCachedCliqueEmbedding((*topology)->CliqueCapacity() + 1, **topology);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(BackendCacheTest, EmbeddedBackendCreationSharesTopology) {
  // Two embedded:* backends over the same spec share one cached topology:
  // creating the second must not construct.
  auto probe = SolverRegistry::Global().Create(
      "embedded:simulated_annealing:pegasus:6");
  ASSERT_TRUE(probe.ok()) << probe.status();
  const BackendCacheStats before = GetBackendCacheStats();
  auto again = SolverRegistry::Global().Create(
      "embedded:tabu_search:pegasus:6");
  ASSERT_TRUE(again.ok()) << again.status();
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.topology_constructions, before.topology_constructions);
  EXPECT_EQ(after.topology_hits - before.topology_hits, 1u);
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
