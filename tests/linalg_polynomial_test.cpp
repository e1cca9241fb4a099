// Tests for polynomials and Durand-Kerner root finding.
#include "linalg/polynomial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include "dsp/covariance.hpp"
#include "linalg/eigen_hermitian.hpp"

namespace safe::linalg {
namespace {

// For each expected root, require a found root within tol.
void expect_roots_match(const std::vector<Complex>& expected,
                        std::vector<Complex> found, double tol = 1e-8) {
  ASSERT_EQ(expected.size(), found.size());
  for (const Complex& e : expected) {
    auto best = std::min_element(
        found.begin(), found.end(), [&e](const Complex& a, const Complex& b) {
          return std::abs(a - e) < std::abs(b - e);
        });
    ASSERT_NE(best, found.end());
    EXPECT_LT(std::abs(*best - e), tol)
        << "missing root near (" << e.real() << ", " << e.imag() << ")";
    found.erase(best);
  }
}

TEST(Polynomial, DegreeTrimsLeadingZeros) {
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{0.0}});
  EXPECT_EQ(p.degree(), 1u);
}

TEST(Polynomial, ZeroPolynomialHasDegreeZero) {
  Polynomial p({Complex{}});
  EXPECT_EQ(p.degree(), 0u);
}

TEST(Polynomial, HornerEvaluation) {
  // p(z) = 1 + 2z + 3z^2 at z=2 -> 1 + 4 + 12 = 17.
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{3.0}});
  EXPECT_NEAR(std::abs(p.evaluate(Complex{2.0}) - Complex{17.0}), 0.0, 1e-12);
}

TEST(Polynomial, DerivativeOfQuadratic) {
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{3.0}});
  const Polynomial d = p.derivative();
  EXPECT_EQ(d.degree(), 1u);
  EXPECT_NEAR(std::abs(d.evaluate(Complex{1.0}) - Complex{8.0}), 0.0, 1e-12);
}

TEST(Polynomial, DerivativeOfConstantIsZero) {
  Polynomial p({Complex{5.0}});
  EXPECT_EQ(p.derivative().degree(), 0u);
  EXPECT_EQ(p.derivative().evaluate(Complex{3.0}), Complex{});
}

TEST(Polynomial, MonicDividesByLeading) {
  Polynomial p({Complex{2.0}, Complex{4.0}});
  const Polynomial m = p.monic();
  EXPECT_NEAR(std::abs(m.coefficients().back() - Complex{1.0}), 0.0, 1e-15);
}

TEST(Polynomial, MonicOfZeroThrows) {
  EXPECT_THROW(Polynomial({Complex{}}).monic(), std::domain_error);
}

TEST(Polynomial, FromRootsRoundTrip) {
  const std::vector<Complex> roots{Complex{1.0}, Complex{-2.0},
                                   Complex{0.0, 3.0}};
  const Polynomial p = Polynomial::from_roots(roots);
  EXPECT_EQ(p.degree(), 3u);
  for (const Complex& r : roots) {
    EXPECT_LT(std::abs(p.evaluate(r)), 1e-12);
  }
}

TEST(FindRoots, LinearPolynomial) {
  // 3z - 6 = 0 -> z = 2.
  Polynomial p({Complex{-6.0}, Complex{3.0}});
  const auto roots = find_roots(p);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_LT(std::abs(roots[0] - Complex{2.0}), 1e-12);
}

TEST(FindRoots, QuadraticWithComplexRoots) {
  // z^2 + 1 = 0 -> +/- i.
  Polynomial p({Complex{1.0}, Complex{0.0}, Complex{1.0}});
  expect_roots_match({Complex{0.0, 1.0}, Complex{0.0, -1.0}}, find_roots(p));
}

TEST(FindRoots, DegreeZeroThrows) {
  EXPECT_THROW(find_roots(Polynomial({Complex{1.0}})), std::invalid_argument);
}

TEST(FindRoots, UnitCircleRootsOfUnity) {
  // z^8 - 1: the 8 roots of unity -- the exact structure root-MUSIC sees.
  std::vector<Complex> c(9, Complex{});
  c[0] = Complex{-1.0};
  c[8] = Complex{1.0};
  std::vector<Complex> expected;
  for (int k = 0; k < 8; ++k) {
    expected.push_back(std::polar(1.0, 2.0 * std::numbers::pi * k / 8.0));
  }
  expect_roots_match(expected, find_roots(Polynomial(c)), 1e-7);
}

TEST(FindRoots, RepeatedRoot) {
  // (z-1)^2 = z^2 - 2z + 1.
  Polynomial p({Complex{1.0}, Complex{-2.0}, Complex{1.0}});
  const auto roots = find_roots(p);
  for (const auto& r : roots) {
    EXPECT_LT(std::abs(r - Complex{1.0}), 1e-5);  // double roots: sqrt(tol)
  }
}

TEST(FindRoots, WideMagnitudeSpread) {
  const std::vector<Complex> expected{Complex{0.01}, Complex{1.0},
                                      Complex{100.0}};
  expect_roots_match(expected, find_roots(Polynomial::from_roots(expected)),
                     1e-5);
}

TEST(CompanionMatrix, StructureMatchesDefinition) {
  // z^3 + 2z^2 + 3z + 4.
  Polynomial p({Complex{4.0}, Complex{3.0}, Complex{2.0}, Complex{1.0}});
  const CMatrix m = companion_matrix(p);
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m(1, 0), Complex(1.0, 0.0));
  EXPECT_EQ(m(2, 1), Complex(1.0, 0.0));
  EXPECT_EQ(m(0, 2), Complex(-4.0, 0.0));
  EXPECT_EQ(m(1, 2), Complex(-3.0, 0.0));
  EXPECT_EQ(m(2, 2), Complex(-2.0, 0.0));
}

TEST(CompanionMatrix, DegreeZeroThrows) {
  EXPECT_THROW(companion_matrix(Polynomial({Complex{2.0}})),
               std::invalid_argument);
}

TEST(CompanionMatrix, CharacteristicPolynomialProperty) {
  // For this companion layout (ones on the subdiagonal, -coeffs in the last
  // column), the Vandermonde vector [1, r, ...]^T is an eigenvector of C^T
  // with eigenvalue r; C and C^T share eigenvalues.
  const std::vector<Complex> roots{Complex{2.0}, Complex{-1.0, 1.0}};
  const Polynomial p = Polynomial::from_roots(roots);
  const CMatrix ct = companion_matrix(p).transpose();
  for (const Complex& r : roots) {
    CVector v{Complex{1.0}, r};
    const CVector cv = ct * v;
    EXPECT_LT(norm2(cv - r * v), 1e-10);
  }
}

// Test-local copy of the Durand-Kerner loop with sequential Horner
// evaluation (q.evaluate at each root's turn). With stall_exit = false it is
// the loop without the stagnation exit; with true it carries the same exit
// rule as find_roots. `sweeps` receives the number of sweeps run.
std::vector<Complex> sequential_dk(const Polynomial& p, bool stall_exit,
                                   std::size_t& sweeps) {
  const RootFindingOptions options;
  const std::size_t n = p.degree();
  const Polynomial q = p.monic();
  const auto& c = q.coefficients();
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
  std::vector<Complex> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = (2.0 * std::numbers::pi * static_cast<double>(i)) /
                             static_cast<double>(n) +
                         0.3979;
    const double r = radius * (0.8 + 0.4 * (static_cast<double>(i) + 1.0) /
                                         static_cast<double>(n));
    z[i] = std::polar(r, angle);
  }
  const std::size_t iterations = std::max(options.max_iterations, 30 * n);
  double best = std::numeric_limits<double>::infinity();
  std::size_t stalled = 0;
  sweeps = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    ++sweeps;
    double max_step = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Complex denom{1.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        denom *= (z[i] - z[j]);
      }
      if (std::abs(denom) == 0.0) {
        z[i] += Complex(1e-6 * (static_cast<double>(i) + 1.0), 1e-6);
        max_step = std::numeric_limits<double>::infinity();
        continue;
      }
      const Complex step = q.evaluate(z[i]) / denom;
      z[i] -= step;
      max_step = std::max(max_step, std::abs(step));
    }
    if (max_step < options.tolerance) break;
    if (!stall_exit) continue;
    if (max_step < best) {
      best = max_step;
      stalled = 0;
    } else if (++stalled >= 10 && best < 1e3 * options.tolerance) {
      break;
    }
  }
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

bool bitwise_equal(const std::vector<Complex>& a,
                   const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

// The degree-30 root-MUSIC polynomial D(z) = a^T(1/z) En En^H a(z) of one
// tone in complex noise (512 samples, covariance order 16, FB-averaged), as
// dsp::root_music_frequencies builds it.
Polynomial root_music_polynomial(double noise, unsigned seed) {
  constexpr std::size_t kSamples = 512;
  constexpr std::size_t kOrder = 16;
  std::mt19937 rng(seed);
  std::normal_distribution<double> awgn(0.0, noise);
  std::uniform_real_distribution<double> freq(-0.45, 0.45);
  const double f = freq(rng);
  std::vector<Complex> x(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    x[i] = std::polar(1.0, 2.0 * std::numbers::pi * f *
                               static_cast<double>(i)) +
           Complex{awgn(rng), awgn(rng)};
  }
  const auto eig =
      eigen_hermitian(dsp::forward_backward_covariance(x, kOrder));
  CMatrix projector(kOrder, kOrder);
  for (std::size_t k = 0; k + 1 < kOrder; ++k) {
    const CVector v = eig.eigenvectors.col(k);
    projector += outer(v, v);
  }
  std::vector<Complex> coeffs(2 * kOrder - 1);
  for (std::size_t j = 0; j < kOrder; ++j) {
    for (std::size_t i = 0; i < kOrder; ++i) {
      coeffs[j + (kOrder - 1) - i] += projector(i, j);
    }
  }
  return Polynomial(std::move(coeffs));
}

// Two double roots on the unit circle among 26 simple roots well inside it:
// the shape that makes Durand-Kerner converge only linearly and stall just
// above the tolerance.
std::vector<Complex> unit_circle_double_roots() {
  std::vector<Complex> roots;
  for (const double angle : {0.7, -2.1}) {
    roots.push_back(std::polar(1.0, angle));
    roots.push_back(std::polar(1.0, angle));
  }
  for (std::size_t k = 0; roots.size() < 30; ++k) {
    const double angle = 0.45 * static_cast<double>(k) + 0.2;
    const double r = 0.3 + 0.01 * static_cast<double>(k);
    roots.push_back(std::polar(r, angle));
    roots.push_back(std::polar(0.9 * r, angle + 0.2));
  }
  return roots;
}

TEST(FindRoots, ConvergingCallsMatchTheLoopWithoutStallExitBitwise) {
  // Iterations that reach the tolerance never meet the stagnation rule, so
  // find_roots must return exactly what the loop without it returns.
  std::vector<Polynomial> polys;
  std::vector<Complex> separated;
  for (std::size_t k = 0; k < 12; ++k) {
    separated.push_back(std::polar(0.5 + 0.125 * static_cast<double>(k),
                                   0.52 * static_cast<double>(k)));
  }
  polys.push_back(Polynomial::from_roots(separated));
  for (unsigned seed = 1; seed <= 8; ++seed) {
    polys.push_back(root_music_polynomial(0.1, seed));
  }
  for (std::size_t k = 0; k < polys.size(); ++k) {
    std::size_t sweeps = 0;
    const auto reference = sequential_dk(polys[k], false, sweeps);
    EXPECT_LT(sweeps, 30 * polys[k].degree()) << "case " << k;
    EXPECT_TRUE(bitwise_equal(find_roots(polys[k]), reference))
        << "case " << k;
  }
}

TEST(FindRoots, StalledCallsMatchSequentialHornerBitwise) {
  // The batched Horner chains evaluate p(z_i) exactly as q.evaluate does,
  // so with the same exit rule the roots are bit-identical even where the
  // exit fires.
  std::vector<Polynomial> polys{
      Polynomial::from_roots(unit_circle_double_roots())};
  for (unsigned seed = 1; seed <= 8; ++seed) {
    polys.push_back(root_music_polynomial(1e-4, seed));
  }
  for (std::size_t k = 0; k < polys.size(); ++k) {
    std::size_t sweeps = 0;
    const auto reference = sequential_dk(polys[k], true, sweeps);
    // Each case stalls: without the exit it runs to the sweep cap.
    std::size_t uncapped = 0;
    (void)sequential_dk(polys[k], false, uncapped);
    EXPECT_EQ(uncapped, 30 * polys[k].degree()) << "case " << k;
    EXPECT_LT(sweeps, uncapped) << "case " << k;
    EXPECT_TRUE(bitwise_equal(find_roots(polys[k]), reference))
        << "case " << k;
  }
}

TEST(FindRoots, StalledDoubleRootsOnUnitCircleAreFound) {
  const auto expected = unit_circle_double_roots();
  expect_roots_match(expected,
                     find_roots(Polynomial::from_roots(expected)), 1e-7);
}

class RootFindingProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RootFindingProperty, RandomRootsRecovered) {
  std::mt19937 rng(GetParam() + 1000);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  const std::size_t degree = 2 + GetParam() % 10;
  std::vector<Complex> expected;
  for (std::size_t i = 0; i < degree; ++i) {
    expected.emplace_back(dist(rng), dist(rng));
  }
  const Polynomial p = Polynomial::from_roots(expected);
  expect_roots_match(expected, find_roots(p), 1e-5);
}

TEST_P(RootFindingProperty, ResidualsAreSmall) {
  std::mt19937 rng(GetParam() + 5000);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t degree = 3 + GetParam() % 12;
  std::vector<Complex> coeffs(degree + 1);
  for (auto& ci : coeffs) ci = Complex{dist(rng), dist(rng)};
  coeffs.back() = Complex{1.0};  // monic, well-conditioned leading term
  const Polynomial p(coeffs);
  for (const Complex& r : find_roots(p)) {
    EXPECT_LT(std::abs(p.evaluate(r)), 1e-6);
  }
}

TEST_P(RootFindingProperty, ConjugateSymmetricPolynomialsHaveReciprocalRoots) {
  // root-MUSIC polynomials satisfy p(z) = conj-reflection; their roots come
  // in (z, 1/conj(z)) pairs. Build such a polynomial and verify the pairing.
  std::mt19937 rng(GetParam() + 9000);
  std::uniform_real_distribution<double> mag(0.3, 0.9);
  std::uniform_real_distribution<double> ang(0.0, 2.0 * std::numbers::pi);
  std::vector<Complex> inside;
  const std::size_t pairs = 2 + GetParam() % 3;
  for (std::size_t i = 0; i < pairs; ++i) {
    inside.push_back(std::polar(mag(rng), ang(rng)));
  }
  std::vector<Complex> all = inside;
  for (const Complex& z : inside) all.push_back(1.0 / std::conj(z));
  const Polynomial p = Polynomial::from_roots(all);
  const auto found = find_roots(p);
  expect_roots_match(all, found, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RootFindingProperty,
                         ::testing::Range(0u, 10u));

}  // namespace
}  // namespace safe::linalg
