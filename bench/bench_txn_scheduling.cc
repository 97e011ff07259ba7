// E7 -- Table I rows [29-31] (Bittner & Groppe; Groppe & Groppe): transaction
// scheduling by quantum annealing / Grover search to avoid 2PL blocking.
// Regenerates the blocking table: wait steps under strict two-phase locking
// for the naive single-slot schedule, greedy coloring, QUBO + annealing, and
// Grover minimum search (small instances), plus achieved makespans.

#include <cstdio>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qopt/txn_scheduling.h"
#include "sweep_util.h"

namespace {

// Epoch fan-out sweep: a stream of per-epoch transaction batches (one QUBO
// per epoch, as in Bittner & Groppe's continuous scheduler) dispatched
// through qopt::SolveTxnScheduleEpochs at increasing pool widths. items/s
// (epochs per second) is the CI perf-gate metric; results are checked
// bit-identical across thread counts (seed + index derivation).
void RunEpochSweep(const qdm_bench::SweepFlags& flags) {
  const int kEpochs = 32;
  qdm::Rng gen_rng(7);
  std::vector<qdm::qopt::TxnScheduleProblem> epochs;
  epochs.reserve(kEpochs);
  for (int e = 0; e < kEpochs; ++e) {
    epochs.push_back(
        qdm::qopt::GenerateTxnSchedule(8, 8, 2, /*num_slots=*/0, &gen_rng));
  }
  qdm::anneal::SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 600;
  options.seed = 7;

  using Batch = std::vector<qdm::qopt::Schedule>;
  qdm_bench::RunThreadSweep<Batch>(
      "Epoch sweep: 32 scheduling epochs (8 txns each) through\n"
      "SolveTxnScheduleEpochs on simulated_annealing, seed-derived per\n"
      "epoch (bit-identical at every thread count).",
      kEpochs, "epochs/s",
      [&epochs, &options](int threads) {
        auto schedules = qdm::qopt::SolveTxnScheduleEpochs(
            epochs, "simulated_annealing", options, 0.0, 1.0, threads);
        QDM_CHECK(schedules.ok()) << schedules.status();
        return *schedules;
      },
      [](const Batch& a, const Batch& b) {
        if (a.size() != b.size()) return false;
        for (size_t i = 0; i < a.size(); ++i) {
          if (a[i].slot_of_txn != b[i].slot_of_txn) return false;
        }
        return true;
      },
      "txn_epochs_items_per_s", flags);
}

}  // namespace

int main(int argc, char** argv) {
  const qdm_bench::SweepFlags flags = qdm_bench::ParseSweepFlags(argc, argv);
  if (flags.sweep_only) {
    RunEpochSweep(flags);
    return 0;
  }
  qdm::Rng rng(2024);
  // Solve k of this report runs with seed 2024 + k.
  uint64_t next_seed = 2024;
  qdm::TablePrinter table({"txns", "conflicts", "naive wait", "greedy wait",
                           "anneal wait", "grover wait", "greedy span",
                           "anneal span", "grover span"});

  for (int txns : {4, 6, 8, 10}) {
    const int kSeeds = 5;
    double naive_wait = 0, greedy_wait = 0, anneal_wait = 0, grover_wait = 0;
    double greedy_span = 0, anneal_span = 0, grover_span = 0;
    double conflicts = 0;
    bool grover_ran = false;
    for (int seed = 0; seed < kSeeds; ++seed) {
      auto problem = qdm::qopt::GenerateTxnSchedule(
          txns, txns, 2, /*num_slots=*/0, &rng);
      conflicts += static_cast<double>(problem.ConflictPairs().size());

      qdm::qopt::Schedule naive;
      naive.slot_of_txn.assign(problem.num_txns(), 0);
      naive.feasible = true;
      naive.makespan = 1;
      naive_wait += qdm::qopt::SimulateTwoPhaseLocking(problem, naive)
                        .total_wait_steps;

      qdm::qopt::Schedule greedy = qdm::qopt::GreedyColoringSchedule(problem);
      greedy_wait += qdm::qopt::SimulateTwoPhaseLocking(problem, greedy)
                         .total_wait_steps;
      greedy_span += greedy.makespan;

      // Both quantum arms dispatch through the QuboSolver registry.
      qdm::anneal::SolverOptions anneal_options;
      anneal_options.num_sweeps = 1500;
      anneal_options.num_reads = 30;
      anneal_options.seed = next_seed++;
      auto annealed = qdm::qopt::SolveTxnSchedule(problem,
                                                  "simulated_annealing",
                                                  anneal_options);
      QDM_CHECK(annealed.ok()) << annealed.status();
      if (annealed->feasible) {
        anneal_wait += qdm::qopt::SimulateTwoPhaseLocking(problem, *annealed)
                           .total_wait_steps;
        anneal_span += annealed->makespan;
      }

      // Grover minimum search (Groppe & Groppe '21) where the register fits.
      if (problem.num_variables() <= 16) {
        grover_ran = true;
        qdm::anneal::SolverOptions grover_options;
        grover_options.num_reads = 3;
        grover_options.seed = next_seed++;
        auto gschedule =
            qdm::qopt::SolveTxnSchedule(problem, "grover_min", grover_options);
        QDM_CHECK(gschedule.ok()) << gschedule.status();
        if (gschedule->feasible) {
          grover_wait += qdm::qopt::SimulateTwoPhaseLocking(problem, *gschedule)
                             .total_wait_steps;
          grover_span += gschedule->makespan;
        }
      }
    }
    table.AddRow({qdm::StrFormat("%d", txns),
                  qdm::StrFormat("%.1f", conflicts / kSeeds),
                  qdm::StrFormat("%.1f", naive_wait / kSeeds),
                  qdm::StrFormat("%.1f", greedy_wait / kSeeds),
                  qdm::StrFormat("%.1f", anneal_wait / kSeeds),
                  grover_ran ? qdm::StrFormat("%.1f", grover_wait / kSeeds)
                             : "-",
                  qdm::StrFormat("%.1f", greedy_span / kSeeds),
                  qdm::StrFormat("%.1f", anneal_span / kSeeds),
                  grover_ran ? qdm::StrFormat("%.1f", grover_span / kSeeds)
                             : "-"});
  }
  std::printf("E7: 2PL blocking (total wait steps) by scheduler\n%s\n",
              table.ToString().c_str());
  std::printf("Shape check: naive blocking grows with conflicts; every\n"
              "optimized schedule eliminates blocking entirely (0 waits),\n"
              "the headline claim of [29, 30]; annealed makespans stay close\n"
              "to greedy coloring.\n\n");
  RunEpochSweep(flags);
  return 0;
}
