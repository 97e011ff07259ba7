#ifndef QDM_QOPT_MQO_H_
#define QDM_QOPT_MQO_H_

#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace qopt {

/// Multiple Query Optimization instance, after Trummer & Koch [VLDB'16]:
/// choose exactly one plan per query, minimizing total plan cost minus the
/// savings earned when two selected plans share an intermediate result.
struct MqoProblem {
  /// plan_costs[q][p]: execution cost of plan p for query q.
  std::vector<std::vector<double>> plan_costs;

  /// A pairwise saving triggered when both plans are selected.
  struct Sharing {
    int query_a = 0;
    int plan_a = 0;
    int query_b = 0;
    int plan_b = 0;
    double saving = 0.0;
  };
  std::vector<Sharing> savings;

  int num_queries() const { return static_cast<int>(plan_costs.size()); }
  int num_plans(int q) const { return static_cast<int>(plan_costs[q].size()); }
  int num_variables() const;

  /// Flat QUBO variable index of (query, plan).
  int VarIndex(int query, int plan) const;

  /// Total cost of a full plan selection (one entry per query).
  double SelectionCost(const std::vector<int>& plan_choice) const;
};

/// Random instance: costs ~ U[10, 100]; each cross-query plan pair shares an
/// intermediate result with probability `sharing_density`, saving a fraction
/// of the cheaper plan's cost (savings never exceed the plan costs, keeping
/// the objective well-posed, as in [20]).
MqoProblem GenerateMqoProblem(int num_queries, int plans_per_query,
                              double sharing_density, Rng* rng);

/// The logical-level mapping of [20]: binary variable per (query, plan),
/// exactly-one-per-query as a penalty, costs on the linear terms and savings
/// as negative quadratic couplings. With `penalty` <= 0 a safe value is
/// derived from the instance (strictly larger than any achievable objective
/// improvement from breaking a constraint).
anneal::Qubo MqoToQubo(const MqoProblem& problem, double penalty = 0.0);

/// A decoded selection. `feasible` is false when some query has zero or
/// multiple selected plans.
struct MqoSolution {
  std::vector<int> plan_choice;
  double cost = 0.0;
  bool feasible = false;
};

/// Strict decode of a QUBO assignment (no repair).
MqoSolution DecodeMqoSample(const MqoProblem& problem,
                            const anneal::Assignment& assignment);

/// MQO end-to-end through the shared qopt::QuboPipeline (see
/// qubo_pipeline.h): MqoToQubo in, registry dispatch to `solver_name`,
/// strict DecodeMqoSample of the best sample out. Any registry name works —
/// the hardware-embedded "embedded:<base>:<topology>" family (e.g.
/// "embedded:simulated_annealing:pegasus:6" runs the Sec III-B physical
/// level) and the "race:<b1>+<b2>" portfolios included. A batch of one,
/// solved with options.seed.
Result<MqoSolution> SolveMqo(const MqoProblem& problem,
                             const std::string& solver_name,
                             const anneal::SolverOptions& options,
                             double penalty = 0.0);

/// Batched MQO, one QUBO per query group — QuboPipeline::RunBatch with the
/// MQO encoder/decoder: encodes every problem, dispatches the whole batch
/// through anneal::SolveBatchParallel (at most `num_threads`
/// wide on the shared pool), and strict-decodes each best sample.
/// solutions[i] corresponds to problems[i]. Inherits the batch determinism
/// guarantee: problem i is solved with seed options.seed + i, independent
/// of thread count. All-or-nothing on failure (lowest failing instance
/// reported).
Result<std::vector<MqoSolution>> SolveMqoBatch(
    const std::vector<MqoProblem>& problems, const std::string& solver_name,
    const anneal::SolverOptions& options, double penalty = 0.0,
    int num_threads = 1);

/// Classical baselines.
MqoSolution ExhaustiveMqo(const MqoProblem& problem);  // Exponential.
MqoSolution GreedyMqo(const MqoProblem& problem);      // Marginal-cost greedy.
MqoSolution LocalSearchMqo(const MqoProblem& problem, int iterations, Rng* rng);

}  // namespace qopt
}  // namespace qdm

#endif  // QDM_QOPT_MQO_H_
