#ifndef QDM_ANNEAL_QUBO_H_
#define QDM_ANNEAL_QUBO_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qdm {
namespace anneal {

/// A 0/1 assignment to QUBO variables.
using Assignment = std::vector<int>;

/// Quadratic Unconstrained Binary Optimization model:
///
///   E(x) = offset + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j,   x in {0,1}^n
///
/// This is the lingua franca of the paper's Figure 2: every data management
/// problem in Table I (MQO, join ordering, schema matching, transaction
/// scheduling) is reformulated as a Qubo and handed to an annealer or to a
/// gate-based algorithm (QAOA/VQE/Grover).
class Qubo {
 public:
  explicit Qubo(int num_variables);

  int num_variables() const { return num_variables_; }

  /// Adds `weight * x_i`.
  void AddLinear(int i, double weight);

  /// Adds `weight * x_i x_j` (i != j; key order normalized).
  void AddQuadratic(int i, int j, double weight);

  /// Adds a constant to every energy.
  void AddOffset(double offset) { offset_ += offset; }

  double linear(int i) const;
  double quadratic(int i, int j) const;
  double offset() const { return offset_; }
  const std::map<std::pair<int, int>, double>& quadratic_terms() const {
    return quadratic_;
  }

  /// E(x) for a full assignment.
  double Energy(const Assignment& x) const;

  /// Energy change from flipping variable i in assignment x. O(|E|): the
  /// term map is keyed by (min, max), so finding the terms (k, i) scans it.
  /// Hot loops freeze the model once (frozen_qubo.h) and read local fields.
  double FlipDelta(const Assignment& x, int i) const;

  // -- Constraint-to-penalty helpers (the standard QUBO encodings) -----------

  /// Adds penalty * (sum_{v in vars} x_v - 1)^2: "exactly one of vars".
  void AddExactlyOnePenalty(const std::vector<int>& vars, double penalty);

  /// Adds penalty * sum_{u<v} x_u x_v: "at most one of vars".
  void AddAtMostOnePenalty(const std::vector<int>& vars, double penalty);

  /// Largest |coefficient|; used to auto-scale penalties and temperature
  /// schedules.
  double MaxAbsCoefficient() const;

  /// Neighbors of variable i in the quadratic interaction graph.
  std::vector<int> Neighbors(int i) const;

  std::string ToString() const;

 private:
  int num_variables_;
  double offset_ = 0.0;
  std::vector<double> linear_;
  std::map<std::pair<int, int>, double> quadratic_;
};

/// Ising model over spins s in {-1,+1}^n:
///   E(s) = offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j
/// The physical layer of annealers speaks Ising; the logical layer speaks
/// QUBO. The two are related by x = (1+s)/2.
struct IsingModel {
  int num_spins = 0;
  double offset = 0.0;
  std::vector<double> h;
  std::map<std::pair<int, int>, double> j;

  double Energy(const std::vector<int>& spins) const;
};

/// Exact QUBO -> Ising transformation (energies preserved:
/// E_qubo(x) == E_ising(2x-1)).
IsingModel QuboToIsing(const Qubo& qubo);

/// Exact Ising -> QUBO transformation (inverse of QuboToIsing).
Qubo IsingToQubo(const IsingModel& ising);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_QUBO_H_
