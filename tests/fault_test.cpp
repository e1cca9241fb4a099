// Unit tests for the fault-injection harness (fault/).
#include <gtest/gtest.h>

#include <cmath>

#include "fault/schedule.hpp"

namespace safe::fault {
namespace {

radar::RadarMeasurement echo(double d, double v) {
  radar::RadarMeasurement m;
  m.estimate = radar::RangeRate{.distance_m = units::Meters{d},
                                .range_rate_mps = units::MetersPerSecond{v}};
  m.coherent_echo = true;
  m.peak_to_average = 500.0;
  return m;
}

TEST(FaultWindow, BoundedWindowIsHalfOpen) {
  const FaultWindow w{.start = 10, .length = 5};
  EXPECT_FALSE(w.active(9));
  EXPECT_TRUE(w.active(10));
  EXPECT_TRUE(w.active(14));
  EXPECT_FALSE(w.active(15));
}

TEST(FaultWindow, ZeroLengthMeansUnbounded) {
  const FaultWindow w{.start = 3, .length = 0};
  EXPECT_FALSE(w.active(2));
  EXPECT_TRUE(w.active(3));
  EXPECT_TRUE(w.active(1'000'000));
}

TEST(FaultWindow, PeriodicWindowRepeats) {
  const FaultWindow w{.start = 100, .length = 2, .period = 10};
  EXPECT_TRUE(w.active(100));
  EXPECT_TRUE(w.active(101));
  EXPECT_FALSE(w.active(102));
  EXPECT_FALSE(w.active(109));
  EXPECT_TRUE(w.active(110));
  EXPECT_TRUE(w.active(121));
  EXPECT_FALSE(w.active(122));
}

TEST(Injectors, DropoutSilencesInWindowOnly) {
  FaultSchedule s;
  s.add(std::make_shared<DropoutBurstFault>(FaultWindow{.start = 5,
                                                        .length = 2}));
  EXPECT_TRUE(s.apply(4, false, echo(50.0, -1.0)).coherent_echo);
  const auto dropped = s.apply(5, false, echo(50.0, -1.0));
  EXPECT_FALSE(dropped.coherent_echo);
  EXPECT_FALSE(dropped.power_alarm);
  EXPECT_TRUE(s.apply(7, false, echo(50.0, -1.0)).coherent_echo);
}

TEST(Injectors, ProbabilisticDropoutIsSeedDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    FaultSchedule s(seed);
    s.add(std::make_shared<DropoutBurstFault>(
        FaultWindow{.start = 0, .length = 0}, 0.5));
    std::string bits;
    for (std::int64_t k = 0; k < 64; ++k) {
      bits += s.apply(k, false, echo(50.0, 0.0)).coherent_echo ? '1' : '0';
    }
    return bits;
  };
  EXPECT_EQ(pattern(7), pattern(7));          // reproducible
  EXPECT_NE(pattern(7), pattern(8));          // seed-sensitive
  EXPECT_NE(pattern(7), std::string(64, '0'));  // not all-drop
  EXPECT_NE(pattern(7), std::string(64, '1'));  // not all-pass
}

TEST(Injectors, StuckAtRepeatsPreviousDeliveredFrame) {
  FaultSchedule s;
  s.add(std::make_shared<StuckAtFault>(FaultWindow{.start = 2, .length = 0}));
  (void)s.apply(0, false, echo(50.0, -1.0));
  (void)s.apply(1, false, echo(49.0, -1.0));
  const auto stuck = s.apply(2, false, echo(48.0, -1.0));
  EXPECT_DOUBLE_EQ(stuck.estimate.distance_m.value(), 49.0);
  // Once latched it keeps re-delivering the same frame forever.
  const auto later = s.apply(10, false, echo(40.0, -1.0));
  EXPECT_DOUBLE_EQ(later.estimate.distance_m.value(), 49.0);
}

TEST(Injectors, NonFiniteKeepsCoherentFlag) {
  FaultSchedule s;
  s.add(std::make_shared<NonFiniteFault>(FaultWindow{.start = 0, .length = 0},
                                         /*use_inf=*/false));
  const auto m = s.apply(0, false, echo(50.0, -1.0));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_TRUE(std::isnan(m.estimate.distance_m.value()));
  EXPECT_TRUE(std::isnan(m.estimate.range_rate_mps.value()));

  FaultSchedule si;
  si.add(std::make_shared<NonFiniteFault>(FaultWindow{.start = 0, .length = 0},
                                          /*use_inf=*/true));
  EXPECT_TRUE(std::isinf(
      si.apply(0, false, echo(50.0, -1.0)).estimate.distance_m.value()));
}

TEST(Injectors, BiasRampGrowsWithAge) {
  FaultSchedule s;
  s.add(std::make_shared<BiasRampFault>(FaultWindow{.start = 10, .length = 0},
                                        units::Meters{0.5},
                                        units::MetersPerSecond{0.1}));
  const auto at10 = s.apply(10, false, echo(50.0, -1.0));
  EXPECT_DOUBLE_EQ(at10.estimate.distance_m.value(), 50.0);
  const auto at14 = s.apply(14, false, echo(50.0, -1.0));
  EXPECT_DOUBLE_EQ(at14.estimate.distance_m.value(), 52.0);
  EXPECT_DOUBLE_EQ(at14.estimate.range_rate_mps.value(), -0.6);
}

TEST(Injectors, QuantizeSnapsAndSaturates) {
  FaultSchedule s;
  s.add(std::make_shared<QuantizeSaturateFault>(
      FaultWindow{.start = 0, .length = 0}, units::Meters{4.0},
      units::Meters{120.0}, units::MetersPerSecond{30.0}));
  const auto snapped = s.apply(0, false, echo(49.0, -1.0));
  EXPECT_DOUBLE_EQ(snapped.estimate.distance_m.value(), 48.0);
  const auto railed = s.apply(1, false, echo(500.0, -80.0));
  EXPECT_DOUBLE_EQ(railed.estimate.distance_m.value(), 120.0);
  EXPECT_DOUBLE_EQ(railed.estimate.range_rate_mps.value(), -30.0);
}

TEST(Injectors, FlapAlternatesJamAndSilenceAtChallenges) {
  FaultSchedule s;
  s.add(std::make_shared<ChallengeFlappingFault>(
      FaultWindow{.start = 0, .length = 0}));
  // Non-challenge steps untouched.
  EXPECT_TRUE(s.apply(0, false, echo(50.0, 0.0)).coherent_echo);
  // Challenge index counts 1, 2, 3...: odd → silent, even → power alarm.
  const auto first = s.apply(1, true, echo(50.0, 0.0));
  const auto second = s.apply(2, true, echo(50.0, 0.0));
  const auto third = s.apply(3, true, echo(50.0, 0.0));
  EXPECT_NE(first.power_alarm, second.power_alarm);
  EXPECT_EQ(first.power_alarm, third.power_alarm);
  EXPECT_FALSE(first.coherent_echo);
  EXPECT_FALSE(second.coherent_echo);
}

TEST(Injectors, ClockSkipRedeliversStaleFrame) {
  FaultSchedule s;
  s.add(std::make_shared<ClockSkipFault>(
      FaultWindow{.start = 0, .length = 1, .period = 4}));
  // First in-window step has no history: behaves as a dropout.
  EXPECT_FALSE(s.apply(0, false, echo(50.0, -1.0)).coherent_echo);
  (void)s.apply(1, false, echo(49.0, -1.0));
  (void)s.apply(2, false, echo(48.0, -1.0));
  (void)s.apply(3, false, echo(47.0, -1.0));
  const auto stale = s.apply(4, false, echo(46.0, -1.0));
  EXPECT_DOUBLE_EQ(stale.estimate.distance_m.value(), 47.0);
}

TEST(Schedule, AppliesInjectorsInOrderAndTracksHistory) {
  // bias then quantize: 49 + 1*0.5... build so order matters.
  FaultSchedule s;
  s.add(std::make_shared<BiasRampFault>(FaultWindow{.start = 0, .length = 0},
                                        units::Meters{1.0}));
  s.add(std::make_shared<QuantizeSaturateFault>(
      FaultWindow{.start = 0, .length = 0}, units::Meters{4.0},
      units::Meters{120.0}, units::MetersPerSecond{30.0}));
  const auto m = s.apply(3, false, echo(49.0, 0.0));
  // 49 + 3 = 52, then snapped to 52 on a 4 m grid.
  EXPECT_DOUBLE_EQ(m.estimate.distance_m.value(), 52.0);
  EXPECT_EQ(s.name(), "bias+quantize");
}

TEST(Schedule, ResetRestartsStreamState) {
  FaultSchedule s;
  s.add(std::make_shared<StuckAtFault>(FaultWindow{.start = 1, .length = 0}));
  (void)s.apply(0, false, echo(50.0, 0.0));
  EXPECT_DOUBLE_EQ(s.apply(1, false, echo(40.0, 0.0)).estimate.distance_m.value(),
                   50.0);
  s.reset();
  // No history after reset: the stuck injector has nothing to latch onto.
  EXPECT_DOUBLE_EQ(s.apply(1, false, echo(40.0, 0.0)).estimate.distance_m.value(),
                   40.0);
}

TEST(Schedule, NullInjectorThrows) {
  FaultSchedule s;
  EXPECT_THROW(s.add(nullptr), std::invalid_argument);
}

TEST(SpecParser, RoundTripsKindsAndWindows) {
  const auto s = parse_fault_spec(
      "dropout:start=60,len=10;nan:start=100,len=1,period=25", 9);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.seed(), 9u);
  EXPECT_EQ(s.name(), "dropout+nan");

  // Window parameters must actually gate: probe the stream.
  FaultSchedule probe = s;
  EXPECT_TRUE(probe.apply(59, false, echo(50.0, 0.0)).coherent_echo);
  EXPECT_FALSE(probe.apply(60, false, echo(50.0, 0.0)).coherent_echo);
  EXPECT_TRUE(std::isnan(
      probe.apply(100, false, echo(50.0, 0.0)).estimate.distance_m.value()));
  EXPECT_FALSE(std::isnan(
      probe.apply(101, false, echo(50.0, 0.0)).estimate.distance_m.value()));
  EXPECT_TRUE(std::isnan(
      probe.apply(125, false, echo(50.0, 0.0)).estimate.distance_m.value()));
}

TEST(SpecParser, PlusSeparatorAndEmptySpecs) {
  EXPECT_EQ(parse_fault_spec("stuck:start=5+flap").size(), 2u);
  EXPECT_TRUE(parse_fault_spec("").empty());
  EXPECT_TRUE(parse_fault_spec("none").empty());
}

TEST(SpecParser, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("wobble:start=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dropout:start"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dropout:start=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dropout:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("bias:prob=0.5"), std::invalid_argument);
  // Window bounds are non-negative integers, probabilities lie in [0, 1],
  // and a key may appear once.
  for (const char* spec :
       {"dropout:start=nan", "dropout:start=1e30", "dropout:start=5abc,len=3",
        "dropout:start=5,start=9", "dropout:start=2.7", "dropout:start=-4",
        "dropout:prob=7"}) {
    EXPECT_THROW((void)parse_fault_spec(spec), std::invalid_argument) << spec;
  }
}

TEST(SpecParser, IdenticalSchedulesProduceIdenticalStreams) {
  const std::string spec = "dropout:start=0,len=0,prob=0.3;bias:start=20";
  FaultSchedule a = parse_fault_spec(spec, 42);
  FaultSchedule b = parse_fault_spec(spec, 42);
  for (std::int64_t k = 0; k < 100; ++k) {
    const auto ma = a.apply(k, k % 7 == 0, echo(80.0 - 0.1 * static_cast<double>(k), -0.1));
    const auto mb = b.apply(k, k % 7 == 0, echo(80.0 - 0.1 * static_cast<double>(k), -0.1));
    EXPECT_EQ(ma.coherent_echo, mb.coherent_echo) << "k=" << k;
    EXPECT_EQ(ma.estimate.distance_m, mb.estimate.distance_m) << "k=" << k;
  }
}

}  // namespace
}  // namespace safe::fault
