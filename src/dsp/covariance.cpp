#include "dsp/covariance.hpp"

#include <array>
#include <stdexcept>

namespace safe::dsp {

using linalg::CMatrix;

namespace {

/// Entries (i, j) .. (i, j + W - 1) of the covariance of the interleaved
/// samples `y`: one pass over the snapshots, one accumulator pair per
/// column, so y_i is loaded once per W products.
template <std::size_t W>
void covariance_columns(const double* y, std::size_t i, std::size_t j,
                        std::size_t snapshots, double scale, CMatrix& r) {
  const double* const yi = y + 2 * i;
  const double* const yj = y + 2 * j;
  std::array<double, W> re{};
  std::array<double, W> im{};
  for (std::size_t n = 0; n < snapshots; ++n) {
    const double ar = yi[2 * n];
    const double ai = yi[2 * n + 1];
    for (std::size_t b = 0; b < W; ++b) {
      const double br = yj[2 * (n + b)];
      const double bi = -yj[2 * (n + b) + 1];
      re[b] += ar * br - ai * bi;
      im[b] += ar * bi + ai * br;
    }
  }
  for (std::size_t b = 0; b < W; ++b) {
    r(i, j + b) = Complex{re[b] * scale, im[b] * scale};
  }
}

}  // namespace

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
  // std::complex products snapshot by snapshot. Row i is built four
  // columns per pass over n, then the last order % 4 columns one at a time.
  const double* const y = reinterpret_cast<const double*>(signal.data());
  CMatrix r(order, order);
  for (std::size_t i = 0; i < order; ++i) {
    std::size_t j = 0;
    for (; j + 4 <= order; j += 4) {
      covariance_columns<4>(y, i, j, snapshots, scale, r);
    }
    for (; j < order; ++j) covariance_columns<1>(y, i, j, snapshots, scale, r);
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
