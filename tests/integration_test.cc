// Cross-module integration tests: full paper pipelines wired end to end.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/workload.h"
#include "qdm/qdb/quantum_database.h"
#include "qdm/qnet/distributed_store.h"
#include "qdm/qopt/join_order_qubo.h"
#include "qdm/qopt/mqo.h"

namespace qdm {
namespace {

// Figure 2, full round trip: physical tables -> join query -> QUBO ->
// annealer-on-Chimera (logical->physical->logical) -> decoded plan ->
// executed result identical to the DP plan's result.
TEST(IntegrationTest, WorkloadToChimeraToExecutedPlan) {
  Rng rng(1);
  db::GeneratedWorkload workload = db::GenerateJoinWorkload(
      db::QueryShape::kChain, 4,
      db::WorkloadOptions{.min_rows = 20, .max_rows = 60}, &rng);

  qopt::JoinOrderQubo encoding(workload.graph);
  ASSERT_EQ(encoding.num_variables(), 16);

  // 16 logical variables embed into Chimera C(4,4,4), through the
  // registry's embedded annealing backend.
  anneal::SolverOptions options;
  options.num_reads = 30;
  options.seed = 1;
  options.num_sweeps = 1500;
  options.chain_strength = 60.0;
  Result<anneal::SampleSet> samples = anneal::SolveWith(
      "embedded:simulated_annealing:chimera:4x4x4", encoding.qubo(), options);
  ASSERT_TRUE(samples.ok()) << samples.status();
  std::vector<int> order =
      encoding.DecodeWithRepair(samples->best().assignment);

  auto quantum_result = db::ExecuteJoinTree(db::LeftDeepFromPermutation(order),
                                            workload.graph, workload.catalog);
  ASSERT_TRUE(quantum_result.ok());

  db::PlanResult dp = db::OptimalLeftDeepPlan(workload.graph);
  auto dp_result =
      db::ExecuteJoinTree(dp.tree, workload.graph, workload.catalog);
  ASSERT_TRUE(dp_result.ok());

  EXPECT_EQ(db::TableFingerprint(*quantum_result),
            db::TableFingerprint(*dp_result))
      << "hardware-embedded plan must compute the same relation";
}

// MQO: the same QUBO must yield the same optimum through annealing, tabu,
// QAOA and exact enumeration (backend interchangeability).
TEST(IntegrationTest, MqoBackendsAgreeOnOptimum) {
  Rng rng(2);
  qopt::MqoProblem problem = qopt::GenerateMqoProblem(3, 2, 0.4, &rng);
  anneal::Qubo qubo = qopt::MqoToQubo(problem);
  const double optimum = qopt::ExhaustiveMqo(problem).cost;

  anneal::SolverOptions options;
  options.num_reads = 100;
  options.num_sweeps = 1000;
  options.layers = 3;
  options.restarts = 4;

  const std::vector<std::string> backends{"simulated_annealing",
                                          "tabu_search", "exact", "qaoa"};
  for (size_t i = 0; i < backends.size(); ++i) {
    const std::string& backend = backends[i];
    options.seed = 2 + i;
    Result<anneal::SampleSet> set = anneal::SolveWith(backend, qubo, options);
    ASSERT_TRUE(set.ok()) << backend << ": " << set.status();
    qopt::MqoSolution decoded =
        qopt::DecodeMqoSample(problem, set->best().assignment);
    ASSERT_TRUE(decoded.feasible) << backend;
    // The variational backend is an approximate optimizer: allow a small
    // relative gap for it; exact/heuristic backends must hit the optimum.
    const double tolerance = backend == "qaoa" ? 0.03 * optimum : 1e-9;
    EXPECT_NEAR(decoded.cost, optimum, tolerance) << backend;
  }
}

// Sec III-A meets Sec IV: a relation stored in the distributed quantum store
// is looked up with Grover search after a QKD-secured replication.
TEST(IntegrationTest, SecureReplicationThenQuantumSearch) {
  Rng rng(3);
  qnet::QuantumNetwork net;
  int a = net.AddNode("a");
  int b = net.AddNode("b");
  qnet::FiberLinkConfig fiber;
  fiber.length_km = 30;
  ASSERT_TRUE(net.AddLink(a, b, fiber).ok());
  qnet::DistributedQuantumStore store(
      net, qnet::DistributedQuantumStore::Options{}, &rng);

  // Ship a small key column to the replica site.
  ASSERT_TRUE(store.PutClassical(a, "keys", "16 records").ok());
  ASSERT_TRUE(store.ReplicateClassical("keys", b).ok());

  // At the replica, the 16-record column is Grover-searchable.
  std::vector<int64_t> column(16);
  for (int i = 0; i < 16; ++i) column[i] = 100 + i;
  auto qdb = qdb::QuantumDatabase::Create(column);
  ASSERT_TRUE(qdb.ok());
  qdb::SearchStats found = qdb->GroverSearchEqual(111, &rng);
  EXPECT_TRUE(found.found);
  EXPECT_EQ(found.record, 111);
  EXPECT_LE(found.oracle_queries, 3);  // floor(pi/4 * 4) = 3.
}

// The no-cloning chain: a qubit minted from a superposition-encoded relation
// sample can be stored and migrated but never duplicated.
TEST(IntegrationTest, QuantumTokenLifecycle) {
  Rng rng(4);
  qdb::SuperpositionRelation relation(3);
  ASSERT_TRUE(relation.Insert(5).ok());
  ASSERT_TRUE(relation.Insert(2).ok());
  auto sampled = relation.SampleMember(&rng);
  ASSERT_TRUE(sampled.ok());

  qnet::QuantumNetwork net;
  int a = net.AddNode("a");
  int b = net.AddNode("b");
  qnet::FiberLinkConfig fiber;
  fiber.length_km = 20;
  ASSERT_TRUE(net.AddLink(a, b, fiber).ok());
  qnet::DistributedQuantumStore store(
      net, qnet::DistributedQuantumStore::Options{}, &rng);

  // Encode the sampled member in a qubit phase.
  const double theta = (*sampled % 8) * M_PI / 8.0;
  ASSERT_TRUE(store.PutQuantum(a, "row-token",
                               qnet::Qubit::FromAngles(theta, 0.0)).ok());
  EXPECT_EQ(store.ReplicateQuantum("row-token", b).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.MigrateQuantum("row-token", b).ok());
  EXPECT_EQ(*store.QuantumLocation("row-token"), b);
}

// Cost-model consistency across the whole stack: the DP optimizer, the QUBO
// proxy decoder and the executor must rank plans consistently on a workload
// where estimates are exact by construction.
TEST(IntegrationTest, CostModelIsConsistentAcrossStack) {
  Rng rng(5);
  db::GeneratedWorkload workload = db::GenerateJoinWorkload(
      db::QueryShape::kStar, 4,
      db::WorkloadOptions{.min_rows = 40, .max_rows = 100}, &rng);

  db::PlanResult best = db::OptimalLeftDeepPlan(workload.graph);
  db::PlanResult random = db::RandomLeftDeepPlan(workload.graph, &rng);

  EXPECT_LE(best.cost, random.cost);
  // Executing both produces identical outputs regardless of cost.
  auto r1 = db::ExecuteJoinTree(best.tree, workload.graph, workload.catalog);
  auto r2 = db::ExecuteJoinTree(random.tree, workload.graph, workload.catalog);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(db::TableFingerprint(*r1), db::TableFingerprint(*r2));
}

}  // namespace
}  // namespace qdm
