#include "dsp/covariance.hpp"

#include <stdexcept>

namespace safe::dsp {

using linalg::CMatrix;

CMatrix sample_covariance(const ComplexSignal& signal, std::size_t order) {
  if (order == 0) {
    throw std::invalid_argument("sample_covariance: order must be >= 1");
  }
  if (signal.size() < order) {
    throw std::invalid_argument("sample_covariance: signal shorter than order");
  }
  const std::size_t snapshots = signal.size() - order + 1;
  const double scale = 1.0 / static_cast<double>(snapshots);
  // Each entry sums over n in ascending order, as a snapshot-outer loop
  // does, and each term y_i * conj(y_j) is written out on doubles the way
  // std::complex operator* computes it for finite operands, without its
  // __muldc3 call. The entries are therefore bit-identical to accumulating
  // std::complex products snapshot by snapshot.
  const double* const y = reinterpret_cast<const double*>(signal.data());
  CMatrix r(order, order);
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t j = 0; j < order; ++j) {
      const double* yi = y + 2 * i;
      const double* yj = y + 2 * j;
      double re = 0.0;
      double im = 0.0;
      for (std::size_t n = 0; n < snapshots; ++n) {
        const double ar = yi[2 * n];
        const double ai = yi[2 * n + 1];
        const double br = yj[2 * n];
        const double bi = -yj[2 * n + 1];
        re += ar * br - ai * bi;
        im += ar * bi + ai * br;
      }
      r(i, j) = Complex{re * scale, im * scale};
    }
  }
  return r;
}

CMatrix exchange_conjugate(const CMatrix& r) {
  const std::size_t n = r.rows();
  CMatrix out(n, r.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      out(i, j) = std::conj(r(n - 1 - i, r.cols() - 1 - j));
    }
  }
  return out;
}

CMatrix forward_backward_covariance(const ComplexSignal& signal,
                                    std::size_t order) {
  const CMatrix fwd = sample_covariance(signal, order);
  const CMatrix bwd = exchange_conjugate(fwd);
  CMatrix avg = fwd;
  avg += bwd;
  // avg *= (0.5, 0), written out as std::complex operator* computes it for
  // finite operands (the 0.0 terms keep its signed-zero results), without
  // the __muldc3 call.
  Complex* const v = avg.data();
  for (std::size_t k = 0; k < avg.rows() * avg.cols(); ++k) {
    const double re = v[k].real();
    const double im = v[k].imag();
    v[k] = Complex{re * 0.5 - im * 0.0, re * 0.0 + im * 0.5};
  }
  return avg;
}

}  // namespace safe::dsp
