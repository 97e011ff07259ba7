#ifndef QDM_QOPT_QUBO_PIPELINE_H_
#define QDM_QOPT_QUBO_PIPELINE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/status.h"

namespace qdm {
namespace qopt {

/// The one recurring shape of the paper's Figure-2 applications: encode a
/// data-management problem as a Qubo, dispatch it by NAME through the
/// QuboSolver registry (any name works — "simulated_annealing",
/// "embedded:<base>:<topology>", "race:<b1>+<b2>",
/// "noisy:<model>:<base>", "adaptive:<b1>+<b2>", ...), and
/// strict-decode the best
/// (lowest-energy) sample back into a domain solution. SolverOptions pass
/// through untouched — including the noise knob, so every application runs
/// under a NISQ noise model by just switching the solver name
/// (docs/noise.md).
///
/// Every qopt application (SolveMqo, SolveJoinOrder, SolveSchemaMatching,
/// SolveTxnSchedule and their batch variants) is a thin adapter over this
/// template — an encoder lambda, a decoder lambda, and a solver name — so a
/// new QUBO workload needs only its encoding and decoding to get single-shot
/// AND batched entry points with the full registry behind them:
///
///   QuboPipeline<MyProblem, MySolution> pipeline(
///       solver_name,
///       [](const MyProblem& p) { return MyProblemToQubo(p); },
///       [](const MyProblem& p, const anneal::Sample& best) {
///         return DecodeMySample(p, best.assignment);
///       });
///   auto one  = pipeline.Run(problem, options);
///   auto many = pipeline.RunBatch(problems, options, /*num_threads=*/4);
///
/// Semantics are inherited wholesale from the anneal layer and therefore
/// identical across every application:
///
///  - RunBatch dispatches through anneal::SolveBatchParallel: instance i is
///    solved with seed options.seed + i, so results are bit-identical at
///    every num_threads value.
///  - Failures are all-or-nothing with the lowest failing instance named
///    ("batch instance <i>:"), and an empty sample set is an Internal error
///    (anneal::BestOfEach). Batches of one report the bare underlying error.
///  - Run is a batch of one (solved with options.seed) — both paths
///    exercise the same code.
///
/// Decoders receive the full best anneal::Sample (not just the assignment)
/// so applications can also surface energies or chain-break fractions.
template <typename Problem, typename Solution>
class QuboPipeline {
 public:
  using Encoder = std::function<anneal::Qubo(const Problem&)>;
  using Decoder =
      std::function<Solution(const Problem&, const anneal::Sample&)>;

  QuboPipeline(std::string solver_name, Encoder encode, Decoder decode)
      : solver_name_(std::move(solver_name)),
        encode_(std::move(encode)),
        decode_(std::move(decode)) {}

  const std::string& solver_name() const { return solver_name_; }

  /// Single-problem pipeline: encode -> dispatch -> decode the best sample.
  Result<Solution> Run(const Problem& problem,
                       const anneal::SolverOptions& options) const {
    QDM_ASSIGN_OR_RETURN(std::vector<Solution> solutions,
                         RunBatch({problem}, options, /*num_threads=*/1));
    return std::move(solutions.front());
  }

  /// Batched pipeline: encode every problem, dispatch the whole batch
  /// through anneal::SolveBatchParallel (at most `num_threads`
  /// wide on the shared pool), decode each best sample. solutions[i]
  /// corresponds to problems[i].
  Result<std::vector<Solution>> RunBatch(const std::vector<Problem>& problems,
                                         const anneal::SolverOptions& options,
                                         int num_threads = 1) const {
    std::vector<anneal::Qubo> qubos;
    qubos.reserve(problems.size());
    for (const Problem& problem : problems) qubos.push_back(encode_(problem));
    QDM_ASSIGN_OR_RETURN(
        std::vector<anneal::SampleSet> sets,
        anneal::SolveBatchParallel(solver_name_, qubos, options, num_threads));
    QDM_ASSIGN_OR_RETURN(std::vector<anneal::Sample> best,
                         anneal::BestOfEach(sets, solver_name_));
    std::vector<Solution> solutions;
    solutions.reserve(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
      solutions.push_back(decode_(problems[i], best[i]));
    }
    return solutions;
  }

 private:
  std::string solver_name_;
  Encoder encode_;
  Decoder decode_;
};

}  // namespace qopt
}  // namespace qdm

#endif  // QDM_QOPT_QUBO_PIPELINE_H_
