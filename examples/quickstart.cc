// Quickstart tour of the qdm toolkit: qubits and entanglement (paper Sec II),
// Grover database search (Sec III-A), and a data management problem solved on
// a simulated quantum annealer via QUBO (Sec III-B / Figure 2).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "qdm/algo/grover.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/qdb/quantum_database.h"
#include "qdm/qopt/mqo.h"
#include "qdm/sim/statevector.h"

int main() {
  qdm::Rng rng(42);

  // -- 1. Superposition (paper Example II.1) ---------------------------------
  std::printf("== 1. Superposition ==\n");
  qdm::circuit::Circuit plus(1);
  plus.H(0);
  qdm::sim::Statevector psi = qdm::sim::RunCircuit(plus);
  int ones = 0;
  const int kShots = 10000;
  for (int s = 0; s < kShots; ++s) {
    ones += static_cast<int>(psi.SampleBasisState(&rng));
  }
  std::printf("|+> measured 1 in %.1f%% of %d shots (expect 50%%)\n\n",
              100.0 * ones / kShots, kShots);

  // -- 2. Entanglement (paper Example IV.1) ----------------------------------
  std::printf("== 2. Bell state ==\n");
  qdm::circuit::Circuit bell(2);
  bell.H(0).CX(0, 1);
  qdm::sim::Statevector phi = qdm::sim::RunCircuit(bell);
  std::printf("%s", phi.ToString().c_str());
  qdm::sim::Statevector collapsed = phi;
  int a = collapsed.MeasureQubit(0, &rng);
  int b = collapsed.MeasureQubit(1, &rng);
  std::printf("measured qubit A=%d  =>  qubit B=%d (always equal)\n\n", a, b);

  // -- 3. Grover database search (paper Sec III-A) ---------------------------
  std::printf("== 3. Grover search over 1024 records ==\n");
  std::vector<int64_t> records(1024);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = static_cast<int64_t>(i * 7);
  }
  auto db = qdm::qdb::QuantumDatabase::Create(records);
  qdm::qdb::SearchStats quantum = db->GroverSearchEqual(7 * 600, &rng);
  qdm::qdb::SearchStats classical =
      db->ClassicalSearchWhere([](int64_t r) { return r == 7 * 600; }, &rng);
  std::printf("quantum:   found record %lld with %lld oracle queries\n",
              static_cast<long long>(quantum.record),
              static_cast<long long>(quantum.oracle_queries));
  std::printf("classical: found record %lld with %lld oracle queries\n\n",
              static_cast<long long>(classical.record),
              static_cast<long long>(classical.oracle_queries));

  // -- 4. A database problem on the annealer (Figure 2 pipeline) -------------
  std::printf("== 4. Multiple query optimization via QUBO + annealing ==\n");
  qdm::qopt::MqoProblem mqo = qdm::qopt::GenerateMqoProblem(
      /*num_queries=*/4, /*plans_per_query=*/3, /*sharing_density=*/0.3, &rng);
  // The application never names a solver class: it asks the registry for the
  // "simulated_annealing" backend (swap the string for "tabu_search", "qaoa",
  // ... to change the Figure-2 arm).
  qdm::anneal::SolverOptions options;
  options.num_reads = 50;
  options.num_sweeps = 1000;
  options.seed = 42;
  auto solved = qdm::qopt::SolveMqo(mqo, "simulated_annealing", options);
  QDM_CHECK(solved.ok()) << solved.status();
  qdm::qopt::MqoSolution solution = *solved;
  qdm::qopt::MqoSolution optimal = qdm::qopt::ExhaustiveMqo(mqo);
  std::printf("annealer selection cost: %.2f (exhaustive optimum %.2f)\n",
              solution.cost, optimal.cost);
  std::printf("plans: ");
  for (int p : solution.plan_choice) std::printf("%d ", p);
  std::printf("\n\n");

  // -- 5. The same problem under hardware constraints ------------------------
  // "embedded:<base>:<topology>" backends run the Sec III-B physical level:
  // clique-embed onto a simulated annealer topology (Chimera / Pegasus /
  // Zephyr), sample there, unembed. Same entry point, different registry
  // name (see docs/embedding.md).
  std::printf("== 5. MQO again, minor-embedded into Pegasus hardware ==\n");
  qdm::anneal::SolverOptions embedded_options = options;
  // Chains harden the annealing landscape (the physical problem has 6x the
  // variables, coupled ferromagnetically), so give the anneal more sweeps
  // than the logical solve above.
  embedded_options.num_sweeps = 1500;
  auto embedded = qdm::qopt::SolveMqo(
      mqo, "embedded:simulated_annealing:pegasus:6", embedded_options);
  QDM_CHECK(embedded.ok()) << embedded.status();
  std::printf("embedded selection cost: %.2f (exhaustive optimum %.2f)\n\n",
              embedded->cost, optimal.cost);

  // -- 6. The same problem on a racing solver portfolio ----------------------
  // "race:<b1>+<b2>" backends run every member on the SAME QUBO and keep the
  // winning (lowest-energy) sample set — the hybrid-system hedge for solver
  // unreliability (docs/solvers.md). Same QuboPipeline entry point, one more
  // registry name.
  std::printf("== 6. MQO again, racing a solver portfolio ==\n");
  auto raced = qdm::qopt::SolveMqo(
      mqo, "race:simulated_annealing+tabu_search", options);
  QDM_CHECK(raced.ok()) << raced.status();
  std::printf("portfolio selection cost: %.2f (exhaustive optimum %.2f)\n",
              raced->cost, optimal.cost);
  return 0;
}
