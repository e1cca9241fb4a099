#include "linalg/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace safe::linalg {

namespace {

constexpr double kLeadingTrimTol = 1e-300;

// Stagnation exit of find_roots: sweeps without a new smallest step, and
// how far above the tolerance that smallest step may sit.
constexpr std::size_t kStallSweeps = 10;
constexpr double kStallTolFactor = 1e3;

}  // namespace

Polynomial::Polynomial(std::vector<Complex> ascending_coeffs)
    : coeffs_(std::move(ascending_coeffs)) {
  while (coeffs_.size() > 1 && std::abs(coeffs_.back()) < kLeadingTrimTol) {
    coeffs_.pop_back();
  }
  if (coeffs_.empty()) coeffs_.push_back(Complex{});
}

std::size_t Polynomial::degree() const { return coeffs_.size() - 1; }

Complex Polynomial::evaluate(Complex z) const {
  Complex acc{};
  for (std::size_t ip1 = coeffs_.size(); ip1 > 0; --ip1) {
    acc = acc * z + coeffs_[ip1 - 1];
  }
  return acc;
}

Polynomial Polynomial::derivative() const {
  if (degree() == 0) return Polynomial({Complex{}});
  std::vector<Complex> d(degree());
  for (std::size_t i = 1; i < coeffs_.size(); ++i) {
    d[i - 1] = coeffs_[i] * static_cast<double>(i);
  }
  return Polynomial(std::move(d));
}

Polynomial Polynomial::monic() const {
  const Complex lead = coeffs_.back();
  if (std::abs(lead) == 0.0) {
    throw std::domain_error("Polynomial::monic: zero polynomial");
  }
  std::vector<Complex> c = coeffs_;
  for (auto& ci : c) ci /= lead;
  return Polynomial(std::move(c));
}

Polynomial Polynomial::from_roots(const std::vector<Complex>& roots) {
  std::vector<Complex> c{Complex{1.0, 0.0}};
  for (const Complex& r : roots) {
    // Multiply the running polynomial by (z - r).
    std::vector<Complex> next(c.size() + 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      next[i + 1] += c[i];
      next[i] -= c[i] * r;
    }
    c = std::move(next);
  }
  return Polynomial(std::move(c));
}

std::vector<Complex> find_roots(const Polynomial& p,
                                const RootFindingOptions& options) {
  const std::size_t n = p.degree();
  if (n == 0) {
    throw std::invalid_argument("find_roots: polynomial has no roots");
  }
  const Polynomial q = p.monic();
  const auto& c = q.coefficients();

  if (n == 1) {
    return {-c[0]};
  }

  // Initial radius: the geometric mean of the root magnitudes is
  // |c0|^(1/n) for a monic polynomial, which puts the start ring through
  // the root cluster (the Cauchy bound can overshoot by orders of
  // magnitude, stalling convergence at high degree). Clamp against the
  // Cauchy bound for safety.
  double cauchy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cauchy = std::max(cauchy, std::abs(c[i]));
  }
  cauchy += 1.0;
  const double c0 = std::abs(c[0]);
  double radius = c0 > 0.0
                      ? std::exp(std::log(c0) / static_cast<double>(n))
                      : 0.5;
  radius = std::clamp(radius, 1e-3, cauchy);

  // Deterministic non-symmetric initial spiral (a symmetric start can put
  // Durand-Kerner on an invariant subspace and stall).
  std::vector<Complex> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = (2.0 * std::numbers::pi * static_cast<double>(i)) /
                             static_cast<double>(n) +
                         0.3979;
    const double r = radius * (0.8 + 0.4 * (static_cast<double>(i) + 1.0) /
                                         static_cast<double>(n));
    z[i] = std::polar(r, angle);
  }

  // High-degree polynomials need proportionally more sweeps.
  const std::size_t iterations =
      std::max(options.max_iterations, 30 * n);
  // Within a Gauss-Seidel sweep z[i] moves only at its own turn, so every
  // p(z[i]) the sweep needs is known at its start. They are evaluated
  // together, root index innermost (n independent Horner chains instead of
  // n serial ones), on the double view of z with std::complex's op order
  // for finite operands: the values are bit-identical to q.evaluate(z[i]).
  const double* const zd = reinterpret_cast<const double*>(z.data());
  std::vector<double> pz(2 * n);
  // A step that stays above the tolerance once the iterates sit at their
  // attainable accuracy (double roots on the unit circle converge only
  // linearly and then jitter at rounding level) ends the loop: `best`
  // is the smallest max_step so far, `stalled` counts sweeps since it was
  // set.
  double best = std::numeric_limits<double>::infinity();
  std::size_t stalled = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    std::fill(pz.begin(), pz.end(), 0.0);
    for (std::size_t kp1 = n + 1; kp1 > 0; --kp1) {
      const double cr = c[kp1 - 1].real();
      const double ci = c[kp1 - 1].imag();
      for (std::size_t i = 0; i < n; ++i) {
        const double zr = zd[2 * i];
        const double zi = zd[2 * i + 1];
        const double pr = pz[2 * i];
        const double pi = pz[2 * i + 1];
        pz[2 * i] = (pr * zr - pi * zi) + cr;
        pz[2 * i + 1] = (pr * zi + pi * zr) + ci;
      }
    }
    double max_step = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Complex denom{1.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        denom *= (z[i] - z[j]);
      }
      if (std::abs(denom) == 0.0) {
        // Collision between iterates: nudge deterministically and retry.
        z[i] += Complex(1e-6 * (static_cast<double>(i) + 1.0), 1e-6);
        max_step = std::numeric_limits<double>::infinity();
        continue;
      }
      const Complex step = Complex{pz[2 * i], pz[2 * i + 1]} / denom;
      z[i] -= step;
      max_step = std::max(max_step, std::abs(step));
    }
    if (max_step < options.tolerance) break;
    if (max_step < best) {
      best = max_step;
      stalled = 0;
    } else if (++stalled >= kStallSweeps &&
               best < kStallTolFactor * options.tolerance) {
      break;
    }
  }

  // A few polishing Newton steps per root (cheap, tightens clusters).
  const Polynomial dq = q.derivative();
  for (auto& zi : z) {
    for (int step = 0; step < 3; ++step) {
      const Complex d = dq.evaluate(zi);
      if (std::abs(d) == 0.0) break;
      zi -= q.evaluate(zi) / d;
    }
  }
  return z;
}

CMatrix companion_matrix(const Polynomial& p) {
  const std::size_t n = p.degree();
  if (n == 0) {
    throw std::invalid_argument("companion_matrix: degree must be >= 1");
  }
  const Polynomial q = p.monic();
  const auto& c = q.coefficients();
  CMatrix m(n, n);
  for (std::size_t i = 1; i < n; ++i) m(i, i - 1) = Complex{1.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = -c[i];
  return m;
}

}  // namespace safe::linalg
