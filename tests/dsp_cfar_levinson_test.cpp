// Tests for autocorrelation and Levinson-Durbin AR fitting.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/levinson.hpp"

namespace safe::dsp {
namespace {

TEST(Autocorrelation, Validation) {
  EXPECT_THROW(autocorrelation({}, 0), std::invalid_argument);
  EXPECT_THROW(autocorrelation({1.0, 2.0}, 2), std::invalid_argument);
}

TEST(Autocorrelation, WhiteSequenceHasSmallLags) {
  std::mt19937 rng(3);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> x(4096);
  for (auto& xi : x) xi = dist(rng);
  const auto r = autocorrelation(x, 4);
  EXPECT_NEAR(r[0], 1.0, 0.1);
  for (std::size_t lag = 1; lag <= 4; ++lag) {
    EXPECT_LT(std::abs(r[lag]), 0.05) << "lag " << lag;
  }
}

TEST(LevinsonDurbin, Validation) {
  EXPECT_THROW(levinson_durbin({1.0}, 1), std::invalid_argument);
  EXPECT_THROW(levinson_durbin({1.0, 0.5}, 0), std::invalid_argument);
}

TEST(LevinsonDurbin, RecoversAr1Coefficient) {
  // AR(1) x[n] = a x[n-1] + e has r[k] = a^k r[0].
  const double a = 0.7;
  std::vector<double> r{1.0, a, a * a, a * a * a};
  const auto fit = levinson_durbin(r, 1);
  ASSERT_EQ(fit.coefficients.size(), 1u);
  EXPECT_NEAR(fit.coefficients[0], a, 1e-12);
  EXPECT_NEAR(fit.error_power, 1.0 - a * a, 1e-12);
}

TEST(LevinsonDurbin, RecoversAr2FromSimulatedData) {
  const double a1 = 1.2, a2 = -0.36;
  std::mt19937 rng(5);
  std::normal_distribution<double> noise(0.0, 0.1);
  std::vector<double> x(8192, 0.0);
  for (std::size_t n = 2; n < x.size(); ++n) {
    x[n] = a1 * x[n - 1] + a2 * x[n - 2] + noise(rng);
  }
  const auto fit = levinson_durbin(autocorrelation(x, 2), 2);
  EXPECT_NEAR(fit.coefficients[0], a1, 0.05);
  EXPECT_NEAR(fit.coefficients[1], a2, 0.05);
}

TEST(LevinsonDurbin, ReflectionCoefficientsAreStable) {
  std::mt19937 rng(7);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<double> x(2048);
  for (auto& xi : x) xi = noise(rng);
  const auto fit = levinson_durbin(autocorrelation(x, 6), 6);
  for (const double k : fit.reflection) {
    EXPECT_LT(std::abs(k), 1.0);
  }
}

TEST(LevinsonDurbin, ZeroSeriesGivesZeroModel) {
  const auto fit = levinson_durbin({0.0, 0.0, 0.0}, 2);
  EXPECT_EQ(fit.error_power, 0.0);
  for (const double c : fit.coefficients) EXPECT_EQ(c, 0.0);
}

TEST(LevinsonPredictor, Validation) {
  EXPECT_THROW(LevinsonPredictor(0, 64), std::invalid_argument);
  EXPECT_THROW(LevinsonPredictor(4, 8), std::invalid_argument);
}

TEST(LevinsonPredictor, HoldsConstantSeries) {
  LevinsonPredictor p;
  for (int k = 0; k < 50; ++k) p.observe(13.0);
  EXPECT_NEAR(p.predict_next(), 13.0, 0.01);
}

TEST(LevinsonPredictor, ExtrapolatesRamp) {
  LevinsonPredictor p;
  for (int k = 0; k < 80; ++k) p.observe(100.0 - 0.5 * k);
  double y = 0.0;
  for (int k = 0; k < 20; ++k) y = p.predict_next();
  EXPECT_NEAR(y, 100.0 - 0.5 * 99.0, 1.0);
}

TEST(LevinsonPredictor, EmptyPredictsZero) {
  LevinsonPredictor p;
  EXPECT_EQ(p.predict_next(), 0.0);
}

TEST(LevinsonPredictor, CloneIsIndependent) {
  LevinsonPredictor p;
  for (int k = 0; k < 40; ++k) p.observe(2.0 * k);
  auto clone = p.clone();
  const double a = clone->predict_next();
  const double b = p.predict_next();
  EXPECT_EQ(a, b);
  clone->observe(-100.0);  // divergent history
  EXPECT_NE(clone->predict_next(), p.predict_next());
}

TEST(LevinsonPredictor, ResetForgets) {
  LevinsonPredictor p;
  for (int k = 0; k < 40; ++k) p.observe(5.0);
  p.reset();
  EXPECT_EQ(p.predict_next(), 0.0);
}

}  // namespace
}  // namespace safe::dsp
