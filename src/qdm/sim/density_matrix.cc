#include "qdm/sim/density_matrix.h"

#include <algorithm>
#include <cmath>

#include "qdm/common/check.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace sim {

using linalg::Matrix;

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits),
      rho_(size_t{1} << num_qubits, size_t{1} << num_qubits) {
  QDM_CHECK(num_qubits > 0 && num_qubits <= 10)
      << "DensityMatrix is intended for small systems";
  rho_(0, 0) = Complex(1, 0);
}

DensityMatrix DensityMatrix::FromStatevector(const Statevector& sv) {
  const size_t dim = sv.dimension();
  Matrix rho(dim, dim);
  // The O(dim^2) outer product honors the state's execution config (rows are
  // independent, so the parallel fill is bit-identical to the serial one);
  // dim^2 is the work-item count compared against the serial cutoff, and the
  // row range is chunked so concurrency never exceeds the resolved thread
  // count (mirroring the gate kernels, not the full shared-pool width).
  const auto fill_rows = [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        rho(i, j) = sv.amplitude(i) * std::conj(sv.amplitude(j));
      }
    }
  };
  const size_t threads = static_cast<size_t>(sv.ResolvedNumThreads());
  if (threads > 1 && dim * dim >= sv.ResolvedSerialCutoff()) {
    const size_t chunks = std::min(threads, dim);
    const size_t chunk_size = (dim + chunks - 1) / chunks;
    ThreadPool::Shared().ForEach(
        static_cast<int>(chunks), /*max_workers=*/0, [&](int, int c) {
          const size_t begin = chunk_size * static_cast<size_t>(c);
          fill_rows(begin, std::min(begin + chunk_size, dim));
        });
  } else {
    fill_rows(0, dim);
  }
  return DensityMatrix(sv.num_qubits(), std::move(rho));
}

DensityMatrix DensityMatrix::WernerState(double fidelity) {
  QDM_CHECK(fidelity >= 0.0 && fidelity <= 1.0);
  // |Phi+> = (|00> + |11>)/sqrt(2) over indices {0, 3}.
  Matrix phi(4, 4);
  phi(0, 0) = phi(0, 3) = phi(3, 0) = phi(3, 3) = Complex(0.5, 0);
  Matrix rest = Matrix::Identity(4) - phi;
  Matrix rho = phi * Complex(fidelity, 0) +
               rest * Complex((1.0 - fidelity) / 3.0, 0);
  return DensityMatrix(2, std::move(rho));
}

void DensityMatrix::ApplyUnitary(const Matrix& u) {
  QDM_CHECK_EQ(u.rows(), rho_.rows());
  rho_ = u * rho_ * u.Adjoint();
}

void DensityMatrix::ApplyKraus(const std::vector<Matrix>& kraus) {
  QDM_CHECK(!kraus.empty());
  Matrix out(rho_.rows(), rho_.cols());
  for (const Matrix& k : kraus) {
    QDM_CHECK_EQ(k.rows(), rho_.rows());
    out = out + k * rho_ * k.Adjoint();
  }
  rho_ = std::move(out);
}

Matrix DensityMatrix::Embed1Q(const Matrix& op, int q) const {
  QDM_CHECK(op.rows() == 2 && op.cols() == 2);
  QDM_CHECK(q >= 0 && q < num_qubits_);
  // Kron(a, b): `a` indexes the more-significant bits, so qubit q (bit q of
  // the index) sits at Kron position (num_qubits - 1 - q) from the left.
  Matrix full = Matrix::Identity(1);
  for (int pos = num_qubits_ - 1; pos >= 0; --pos) {
    full = linalg::Kron(full, pos == q ? op : Matrix::Identity(2));
  }
  return full;
}

void DensityMatrix::ApplyKraus1Q(const std::vector<Matrix>& kraus, int q) {
  std::vector<Matrix> embedded;
  embedded.reserve(kraus.size());
  for (const Matrix& k : kraus) embedded.push_back(Embed1Q(k, q));
  ApplyKraus(embedded);
}

void DensityMatrix::ApplyUnitary1Q(const Matrix& u, int q) {
  ApplyUnitary(Embed1Q(u, q));
}

double DensityMatrix::FidelityWithPure(const Statevector& psi) const {
  QDM_CHECK_EQ(psi.dimension(), rho_.rows());
  // <psi|rho|psi>
  Complex f(0, 0);
  for (size_t i = 0; i < rho_.rows(); ++i) {
    for (size_t j = 0; j < rho_.cols(); ++j) {
      f += std::conj(psi.amplitude(i)) * rho_(i, j) * psi.amplitude(j);
    }
  }
  return f.real();
}

double DensityMatrix::Purity() const { return (rho_ * rho_).Trace().real(); }

DensityMatrix DensityMatrix::PartialTrace(const std::vector<int>& keep) const {
  QDM_CHECK(!keep.empty());
  for (size_t i = 0; i + 1 < keep.size(); ++i) {
    QDM_CHECK_LT(keep[i], keep[i + 1]);
  }
  const int k = static_cast<int>(keep.size());
  const size_t out_dim = size_t{1} << k;
  Matrix out(out_dim, out_dim);

  std::vector<int> traced;
  for (int q = 0; q < num_qubits_; ++q) {
    bool kept = false;
    for (int kq : keep) kept |= (kq == q);
    if (!kept) traced.push_back(q);
  }
  const size_t traced_dim = size_t{1} << traced.size();

  auto compose_index = [&](size_t keep_bits, size_t traced_bits) {
    uint64_t z = 0;
    for (int i = 0; i < k; ++i) {
      if ((keep_bits >> i) & 1) z |= uint64_t{1} << keep[i];
    }
    for (size_t i = 0; i < traced.size(); ++i) {
      if ((traced_bits >> i) & 1) z |= uint64_t{1} << traced[i];
    }
    return z;
  };

  for (size_t a = 0; a < out_dim; ++a) {
    for (size_t b = 0; b < out_dim; ++b) {
      Complex sum(0, 0);
      for (size_t t = 0; t < traced_dim; ++t) {
        sum += rho_(compose_index(a, t), compose_index(b, t));
      }
      out(a, b) = sum;
    }
  }
  return DensityMatrix(k, std::move(out));
}

double DensityMatrix::ProbabilityOfOne(int q) const {
  QDM_CHECK(q >= 0 && q < num_qubits_);
  const uint64_t bit = uint64_t{1} << q;
  double p = 0.0;
  for (size_t z = 0; z < rho_.rows(); ++z) {
    if (z & bit) p += rho_(z, z).real();
  }
  return p;
}

}  // namespace sim
}  // namespace qdm
