// Transaction scheduling on a quantum annealer (Bittner & Groppe; paper
// Table I): conflicting transactions are assigned to slots via QUBO so that
// two-phase locking never blocks, validated on a lock-table simulation.
//
// Build & run:  ./build/examples/txn_scheduler_demo

#include <cstdio>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qopt/txn_scheduling.h"

int main() {
  qdm::Rng rng(5);

  // 8 transactions locking 2 of 8 objects each.
  qdm::qopt::TxnScheduleProblem problem =
      qdm::qopt::GenerateTxnSchedule(/*num_txns=*/8, /*num_objects=*/8,
                                     /*locks_per_txn=*/2, /*num_slots=*/0,
                                     &rng);
  std::printf("conflicting transaction pairs: %zu, slots available: %d\n\n",
              problem.ConflictPairs().size(), problem.num_slots);

  auto evaluate = [&](const std::string& name,
                      const qdm::qopt::Schedule& schedule,
                      qdm::TablePrinter* table) {
    qdm::qopt::BlockingReport report =
        qdm::qopt::SimulateTwoPhaseLocking(problem, schedule);
    std::string slots;
    for (int s : schedule.slot_of_txn) slots += qdm::StrFormat("%d ", s);
    table->AddRow({name, slots, qdm::StrFormat("%d", schedule.makespan),
                   qdm::StrFormat("%d", schedule.conflicting_pairs_same_slot),
                   qdm::StrFormat("%d", report.total_wait_steps)});
  };

  qdm::TablePrinter table(
      {"scheduler", "slot per txn", "makespan", "co-located conflicts",
       "2PL wait steps"});

  // Naive: everything in slot 0 (maximum concurrency, maximum blocking).
  qdm::qopt::Schedule naive;
  naive.slot_of_txn.assign(problem.num_txns(), 0);
  naive.feasible = true;
  naive.makespan = 1;
  for (const auto& [a, b] : problem.ConflictPairs()) {
    if (naive.slot_of_txn[a] == naive.slot_of_txn[b]) {
      ++naive.conflicting_pairs_same_slot;
    }
  }
  evaluate("all-in-one-slot", naive, &table);

  // Classical: greedy conflict-graph coloring.
  evaluate("greedy coloring", qdm::qopt::GreedyColoringSchedule(problem),
           &table);

  // Quantum annealer path: QUBO + simulated annealing, dispatched through
  // the QuboSolver registry.
  qdm::anneal::SolverOptions options;
  options.num_reads = 40;
  options.num_sweeps = 1500;
  options.seed = 5;
  auto annealed =
      qdm::qopt::SolveTxnSchedule(problem, "simulated_annealing", options);
  QDM_CHECK(annealed.ok()) << annealed.status();
  QDM_CHECK(annealed->feasible);
  evaluate("QUBO + annealer", *annealed, &table);

  std::printf("%s\nA schedule with zero co-located conflicts never blocks "
              "under strict 2PL.\n", table.ToString().c_str());
  return 0;
}
