// Join ordering across all backends of the paper's Figure 2, end to end:
// a physical database is generated, the join query is optimized by classical
// DP, by QUBO + simulated annealing, by QAOA, and by the VQC RL agent, and
// the winning plan is EXECUTED against the actual tables to verify that every
// optimizer returns the same relation (only cheaper).
//
// Build & run:  ./build/examples/join_ordering_tour

#include <cstdio>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/workload.h"
#include "qdm/qml/vqc_join_agent.h"
#include "qdm/qopt/join_order_qubo.h"

int main() {
  qdm::Rng rng(7);

  // A 4-relation chain query over real generated tables.
  qdm::db::GeneratedWorkload workload = qdm::db::GenerateJoinWorkload(
      qdm::db::QueryShape::kChain, 4,
      qdm::db::WorkloadOptions{.min_rows = 30, .max_rows = 120}, &rng);
  const qdm::db::JoinGraph& graph = workload.graph;
  std::printf("%s\n", graph.ToString().c_str());

  qdm::TablePrinter report({"optimizer", "order", "C_out cost", "rows out"});

  auto report_plan = [&](const std::string& name,
                         const qdm::db::JoinTreeRef& tree) {
    auto result = qdm::db::ExecuteJoinTree(tree, graph, workload.catalog);
    QDM_CHECK(result.ok()) << result.status();
    report.AddRow({name, qdm::db::TreeToString(tree, graph),
                   qdm::StrFormat("%.0f", qdm::db::CoutCost(tree, graph)),
                   qdm::StrFormat("%zu", result->num_rows())});
    return qdm::db::TableFingerprint(*result);
  };

  // 1. Classical dynamic programming (left-deep optimum).
  qdm::db::PlanResult dp = qdm::db::OptimalLeftDeepPlan(graph);
  const uint64_t reference = report_plan("DP (optimal)", dp.tree);

  // 2. QUBO + simulated annealing (the annealer arm of Figure 2), dispatched
  // through the QuboSolver registry.
  qdm::anneal::SolverOptions anneal_options;
  anneal_options.num_sweeps = 800;
  anneal_options.num_reads = 30;
  anneal_options.seed = 7;
  auto annealed =
      qdm::qopt::SolveJoinOrder(graph, "simulated_annealing", anneal_options);
  QDM_CHECK(annealed.ok()) << annealed.status();
  QDM_CHECK(report_plan("QUBO+anneal",
                        qdm::db::LeftDeepFromPermutation(annealed->order)) ==
            reference)
      << "plans must agree on the output relation";

  // 3. QAOA (gate-based arm): same pipeline, different registry name.
  // 16 QUBO variables = 16 simulated qubits.
  qdm::anneal::SolverOptions qaoa_options;
  qaoa_options.num_reads = 40;
  qaoa_options.layers = 2;
  qaoa_options.restarts = 2;
  qaoa_options.seed = 8;
  auto qaoa_solved = qdm::qopt::SolveJoinOrder(graph, "qaoa", qaoa_options);
  QDM_CHECK(qaoa_solved.ok()) << qaoa_solved.status();
  QDM_CHECK(report_plan("QAOA",
                        qdm::db::LeftDeepFromPermutation(qaoa_solved->order)) ==
            reference);

  // 4. VQC reinforcement learning (Winker et al.).
  qdm::qml::VqcJoinOrderAgent agent(
      graph, qdm::qml::VqcJoinOrderAgent::Options{.episodes = 120}, &rng);
  agent.Train();
  QDM_CHECK(report_plan("VQC RL",
                        qdm::db::LeftDeepFromPermutation(
                            agent.BestVisitedOrder())) ==
            reference);

  std::printf("%s\nAll optimizers produced the same relation. "
              "Cost differences are plan quality only.\n",
              report.ToString().c_str());
  return 0;
}
