// Tests for the sim substrate: noise sources, LTI plant, trace recorder.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/lti_system.hpp"
#include "sim/noise.hpp"
#include "sim/trace.hpp"

namespace safe::sim {
namespace {

using linalg::RMatrix;
using linalg::RVector;

LtiModel double_integrator(double dt = 1.0) {
  // Position-velocity kinematics: the exact model the car-following study
  // linearizes to.
  return LtiModel{
      .a = RMatrix{{1.0, dt}, {0.0, 1.0}},
      .b = RMatrix{{0.5 * dt * dt}, {dt}},
      .c = RMatrix{{1.0, 0.0}},
  };
}

TEST(GaussianNoise, RejectsNegativeStddev) {
  EXPECT_THROW(GaussianNoise(0.0, -1.0, 1), std::invalid_argument);
}

TEST(GaussianNoise, RejectsNanStddev) {
  EXPECT_THROW(GaussianNoise(0.0, std::nan(""), 1), std::invalid_argument);
}

TEST(GaussianNoise, ZeroStddevIsDeterministicMean) {
  GaussianNoise n(3.5, 0.0, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(n.sample(), 3.5);
}

TEST(GaussianNoise, SeededReproducibility) {
  GaussianNoise a(0.0, 1.0, 42), b(0.0, 1.0, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.sample(), b.sample());
}

TEST(GaussianNoise, SampleMomentsMatch) {
  GaussianNoise n(2.0, 0.5, 13);
  double sum = 0.0, sum2 = 0.0;
  const int count = 20000;
  for (int i = 0; i < count; ++i) {
    const double s = n.sample();
    sum += s;
    sum2 += s * s;
  }
  const double mean = sum / count;
  const double var = sum2 / count - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(std::sqrt(var), 0.5, 0.02);
}

TEST(UniformNoise, RejectsEmptyRange) {
  EXPECT_THROW(UniformNoise(1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(UniformNoise(2.0, 1.0, 3), std::invalid_argument);
}

TEST(UniformNoise, SamplesStayInRange) {
  UniformNoise n(-2.0, 5.0, 9);
  for (int i = 0; i < 1000; ++i) {
    const double s = n.sample();
    EXPECT_GE(s, -2.0);
    EXPECT_LT(s, 5.0);
  }
}

TEST(LtiModel, ValidationCatchesBadShapes) {
  LtiModel ok = double_integrator();
  EXPECT_NO_THROW(validate_model(ok));

  LtiModel bad_a = ok;
  bad_a.a = RMatrix(2, 3);
  EXPECT_THROW(validate_model(bad_a), std::invalid_argument);

  LtiModel bad_b = ok;
  bad_b.b = RMatrix(3, 1);
  EXPECT_THROW(validate_model(bad_b), std::invalid_argument);

  LtiModel bad_c = ok;
  bad_c.c = RMatrix(1, 3);
  EXPECT_THROW(validate_model(bad_c), std::invalid_argument);
}

TEST(LtiSystem, InitialStateDimensionChecked) {
  EXPECT_THROW(LtiSystem(double_integrator(), RVector{1.0}),
               std::invalid_argument);
}

TEST(LtiSystem, StepMatchesHandComputation) {
  LtiSystem sys(double_integrator(), RVector{0.0, 10.0});
  // One step with unit acceleration: x = 0 + 10*1 + 0.5, v = 10 + 1.
  const RVector& x1 = sys.step(RVector{1.0});
  EXPECT_NEAR(x1[0], 10.5, 1e-12);
  EXPECT_NEAR(x1[1], 11.0, 1e-12);
}

TEST(LtiSystem, StepInputDimensionChecked) {
  LtiSystem sys(double_integrator(), RVector{0.0, 0.0});
  EXPECT_THROW(sys.step(RVector{1.0, 2.0}), std::invalid_argument);
}

TEST(LtiSystem, NoiseFreeMeasureEqualsTrueOutput) {
  LtiSystem sys(double_integrator(), RVector{5.0, 2.0});
  EXPECT_EQ(sys.measure()[0], 5.0);
  EXPECT_EQ(sys.true_output()[0], 5.0);
}

TEST(LtiSystem, NoisyMeasureCentersOnTruth) {
  LtiSystem sys(double_integrator(), RVector{100.0, 0.0}, 0.5, 77);
  double sum = 0.0;
  const int count = 5000;
  for (int i = 0; i < count; ++i) sum += sys.measure()[0];
  EXPECT_NEAR(sum / count, 100.0, 0.05);
}

TEST(LtiSystem, ResetRestoresState) {
  LtiSystem sys(double_integrator(), RVector{0.0, 0.0});
  sys.step(RVector{1.0});
  sys.reset(RVector{3.0, 4.0});
  EXPECT_EQ(sys.state()[0], 3.0);
  EXPECT_EQ(sys.state()[1], 4.0);
  EXPECT_THROW(sys.reset(RVector{1.0}), std::invalid_argument);
}

TEST(LtiSystem, UnforcedTrajectoryFollowsPowersOfA) {
  LtiSystem sys(double_integrator(0.5), RVector{1.0, 2.0});
  for (int k = 0; k < 4; ++k) sys.step(RVector{0.0});
  // After 4 steps of dt=0.5 with no input: x = 1 + 2*4*0.5 = 5, v = 2.
  EXPECT_NEAR(sys.state()[0], 5.0, 1e-12);
  EXPECT_NEAR(sys.state()[1], 2.0, 1e-12);
}

TEST(Observability, DoubleIntegratorWithPositionOutputIsObservable) {
  EXPECT_TRUE(is_observable(double_integrator()));
}

TEST(Observability, VelocityOnlyOutputOfDriftlessPlantIsNotObservable) {
  // Measuring only velocity of [pos; vel] dynamics cannot recover position.
  LtiModel m = double_integrator();
  m.c = RMatrix{{0.0, 1.0}};
  EXPECT_FALSE(is_observable(m));
}

TEST(Observability, MatrixHasExpectedStructure) {
  const RMatrix obs = observability_matrix(double_integrator());
  ASSERT_EQ(obs.rows(), 2u);
  ASSERT_EQ(obs.cols(), 2u);
  EXPECT_EQ(obs(0, 0), 1.0);  // C
  EXPECT_EQ(obs(0, 1), 0.0);
  EXPECT_EQ(obs(1, 0), 1.0);  // CA
  EXPECT_EQ(obs(1, 1), 1.0);
}

TEST(Trace, RequiresColumns) {
  EXPECT_THROW(Trace({}), std::invalid_argument);
}

TEST(Trace, AppendAndReadBack) {
  Trace t({"time", "value"});
  t.append_row({0.0, 1.0});
  t.append_row({1.0, 2.5});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("value")[1], 2.5);
  EXPECT_EQ(t.column(0)[1], 1.0);
}

TEST(Trace, RowArityChecked) {
  Trace t({"a", "b"});
  EXPECT_THROW(t.append_row({1.0}), std::invalid_argument);
}

TEST(Trace, UnknownColumnThrows) {
  Trace t({"a"});
  EXPECT_THROW(static_cast<void>(t.column("missing")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.column(5)), std::out_of_range);
}

TEST(Trace, CsvOutputHasHeaderAndRows) {
  Trace t({"x", "y"});
  t.append_row({1.0, 2.0});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Trace, CsvRoundTrip) {
  Trace t({"a", "b", "c"});
  t.append_row({1.0, -2.5, 3.25});
  t.append_row({4.0, 5.5, -6.125});
  std::ostringstream os;
  t.write_csv(os);
  std::istringstream is(os.str());
  const Trace back = Trace::read_csv(is);
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.column_names(), t.column_names());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(back.column(c), t.column(c));
  }
}

TEST(Trace, ReadCsvRejectsMalformedInput) {
  {
    std::istringstream empty("");
    EXPECT_THROW(Trace::read_csv(empty), std::invalid_argument);
  }
  {
    std::istringstream bad_number("x,y\n1,banana\n");
    EXPECT_THROW(Trace::read_csv(bad_number), std::invalid_argument);
  }
  {
    std::istringstream junk("x\n1.5zzz\n");
    EXPECT_THROW(Trace::read_csv(junk), std::invalid_argument);
  }
  {
    std::istringstream ragged("x,y\n1\n");
    EXPECT_THROW(Trace::read_csv(ragged), std::invalid_argument);
  }
}

TEST(Trace, ReadCsvSkipsBlankLines) {
  std::istringstream is("v\n1\n\n2\n");
  const Trace t = Trace::read_csv(is);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("v")[1], 2.0);
}

TEST(Trace, TableSubsamplingKeepsLastRow) {
  Trace t({"k"});
  for (int i = 0; i < 10; ++i) t.append_row({static_cast<double>(i)});
  std::ostringstream os;
  t.write_table(os, 4);
  // Rows 0, 4, 8 and the forced final row 9.
  EXPECT_NE(os.str().find("9.000"), std::string::npos);
  EXPECT_NE(os.str().find("4.000"), std::string::npos);
  EXPECT_EQ(os.str().find("3.000"), std::string::npos);
}

}  // namespace
}  // namespace safe::sim
