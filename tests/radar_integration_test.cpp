// Cross-component radar integration tests: two-target scenes through the
// processor.
#include <gtest/gtest.h>

#include <cmath>

#include "radar/link_budget.hpp"
#include "radar/processor.hpp"

namespace safe::radar {
namespace {

using units::Meters;
using units::MetersPerSecond;

RadarProcessorConfig test_config() {
  RadarProcessorConfig cfg;
  cfg.estimator = BeatEstimator::kPeriodogram;
  cfg.noise_floor_w = thermal_noise_power_w(cfg.waveform);
  return cfg;
}

EchoScene scene_for(double d, double dv, const RadarProcessorConfig& cfg) {
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{d},
      .range_rate_mps = MetersPerSecond{dv},
      .power_w = received_echo_power_w(cfg.waveform, Meters{d}, 10.0),
  });
  scene.noise_power_w = cfg.noise_floor_w;
  return scene;
}

TEST(RadarTwoTargets, StrongerEchoWins) {
  const auto cfg = test_config();
  RadarProcessor radar(cfg, 7);
  EchoScene scene = scene_for(40.0, -1.0, cfg);
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{90.0},
      .range_rate_mps = MetersPerSecond{2.0},
      .power_w = received_echo_power_w(cfg.waveform, Meters{90.0}, 10.0),
  });
  // d^-4: the 40 m echo is ~26 dB stronger; the receiver locks onto it.
  const auto m = radar.measure(scene);
  ASSERT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 40.0, 2.0);
}

}  // namespace
}  // namespace safe::radar
