// End-to-end tests of the radar signal path: scene -> baseband -> estimate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/spectral.hpp"

#include "radar/echo_scene.hpp"
#include "radar/link_budget.hpp"
#include "radar/processor.hpp"

namespace safe::radar {
namespace {

using units::Meters;
using units::MetersPerSecond;

RadarProcessorConfig test_config(BeatEstimator estimator) {
  RadarProcessorConfig cfg;
  cfg.estimator = estimator;
  cfg.noise_floor_w = thermal_noise_power_w(cfg.waveform);
  return cfg;
}

EchoScene target_scene(double distance_m, double range_rate_mps,
                       const RadarProcessorConfig& cfg, double rcs = 10.0) {
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{distance_m},
      .range_rate_mps = MetersPerSecond{range_rate_mps},
      .power_w = received_echo_power_w(cfg.waveform, Meters{distance_m}, rcs),
  });
  scene.noise_power_w = cfg.noise_floor_w;
  return scene;
}

TEST(RadarProcessor, ConfigValidation) {
  RadarProcessorConfig cfg = test_config(BeatEstimator::kRootMusic);
  cfg.sample_rate_hz = units::Hertz{0.0};
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);

  cfg = test_config(BeatEstimator::kRootMusic);
  cfg.samples_per_segment = 8;  // < 2 * music_order
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);

  cfg = test_config(BeatEstimator::kRootMusic);
  cfg.samples_per_segment = 4096;  // 4.1 ms > half sweep (1 ms)
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);
}

TEST(RadarProcessor, MeasuresStationaryTargetRootMusic) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 7);
  const auto m = radar.measure(target_scene(100.0, 0.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 100.0, 1.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), 0.0, 0.5);
}

TEST(RadarProcessor, MeasuresMovingTargetRootMusic) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 11);
  const auto m = radar.measure(target_scene(60.0, -4.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 60.0, 1.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), -4.0, 0.5);
}

TEST(RadarProcessor, MeasuresTargetPeriodogram) {
  const auto cfg = test_config(BeatEstimator::kPeriodogram);
  RadarProcessor radar(cfg, 13);
  const auto m = radar.measure(target_scene(80.0, 2.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 80.0, 2.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), 2.0, 1.0);
}

TEST(RadarProcessor, ChallengeSlotWithNoAttackIsSilent) {
  // Tx suppressed, no attacker: only thermal noise reaches the receiver.
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 17);
  EchoScene scene;
  scene.tx_enabled = false;
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_FALSE(m.coherent_echo);
  EXPECT_FALSE(m.power_alarm);
  EXPECT_FALSE(m.nonzero_output());
}

TEST(RadarProcessor, JammingRaisesPowerAlarm) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 19);
  EchoScene scene;
  scene.tx_enabled = false;  // challenge slot
  scene.noise_power_w =
      cfg.noise_floor_w +
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.power_alarm);
  EXPECT_TRUE(m.nonzero_output());
}

TEST(RadarProcessor, JammingCorruptsRangeEstimate) {
  // With the echo buried under jamming, the estimator output is garbage
  // (this is the corrupted trace of Figures 2a / 3a).
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 23);
  EchoScene scene = target_scene(100.0, -1.0, cfg);
  scene.noise_power_w +=
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  const auto m = radar.measure(scene);
  // The coherent echo is ~33 dB below the jam floor: no stable lock.
  EXPECT_GT(std::abs((m.estimate.distance_m - Meters{100.0}).value()), 5.0);
}

TEST(RadarProcessor, SpoofedEchoShiftsRangeBySixMeters) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 29);
  // Counterfeit echo: same kinematics, apparent range +6 m, healthy power.
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{100.0 + 6.0},
      .range_rate_mps = MetersPerSecond{-2.0},
      .power_w =
          received_echo_power_w(cfg.waveform, Meters{100.0}, 10.0) * 4.0,
  });
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 106.0, 1.0);
}

TEST(RadarProcessor, SpoofDuringChallengeIsDetectable) {
  // Attacker keeps replaying during a challenge slot: receiver sees a
  // coherent tone where silence was expected.
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 31);
  EchoScene scene;
  scene.tx_enabled = false;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{106.0},
      .range_rate_mps = MetersPerSecond{-2.0},
      .power_w =
          received_echo_power_w(cfg.waveform, Meters{100.0}, 10.0) * 4.0,
  });
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_TRUE(m.nonzero_output());
}

TEST(RadarProcessor, SynthesizeProducesRequestedLength)
{
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 37);
  const auto seg = radar.synthesize(target_scene(50.0, 0.0, cfg));
  EXPECT_EQ(seg.up.size(), cfg.samples_per_segment);
  EXPECT_EQ(seg.down.size(), cfg.samples_per_segment);
}

TEST(RadarProcessor, SegmentPowerMatchesSceneBudget) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 41);
  auto scene = target_scene(30.0, 0.0, cfg);
  const double expected =
      scene.echoes[0].power_w + scene.noise_power_w;
  const auto m = radar.measure(scene);
  EXPECT_NEAR(m.rx_power_w / expected, 1.0, 0.35);
}

TEST(RadarProcessor, DeterministicGivenSeed) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor a(cfg, 99), b(cfg, 99);
  const auto scene = target_scene(75.0, -3.0, cfg);
  const auto ma = a.measure(scene);
  const auto mb = b.measure(scene);
  EXPECT_EQ(ma.estimate.distance_m.value(), mb.estimate.distance_m.value());
  EXPECT_EQ(ma.estimate.range_rate_mps.value(),
            mb.estimate.range_rate_mps.value());
}

TEST(RadarProcessor, PeriodogramMeasureEqualsItsPublicComposition) {
  // measure() reads one up-segment spectrum for both the coherence
  // statistic and the up beat; the result must equal, bit for bit, the
  // public one-call estimators applied to the same synthesized segments.
  const auto cfg = test_config(BeatEstimator::kPeriodogram);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double fs = cfg.sample_rate_hz.value();
  const auto beat = [fs](const dsp::ComplexSignal& segment) {
    const auto tone = dsp::estimate_dominant_tone(segment, fs);
    return tone ? tone->frequency_hz : 0.0;
  };
  EchoScene two_echoes = target_scene(60.0, -2.0, cfg);
  two_echoes.echoes.push_back(target_scene(66.0, -2.0, cfg, 3.0).echoes[0]);
  EchoScene noise_only;
  noise_only.noise_power_w = cfg.noise_floor_w;

  RadarProcessor measured(cfg, 53);
  RadarProcessor composed(cfg, 53);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const EchoScene& scene = epoch % 3 == 2 ? noise_only : two_echoes;
    const RadarMeasurement m = measured.measure(scene);
    const RadarProcessor::Segments seg = composed.synthesize(scene);
    const double rx_power_w =
        0.5 * (dsp::mean_power(seg.up) + dsp::mean_power(seg.down));
    BeatFrequencies beats;
    beats.up_hz = units::Hertz{beat(seg.up)};
    beats.down_hz = units::Hertz{beat(seg.down)};
    const RangeRate estimate = range_rate_from_beats(cfg.waveform, beats);

    EXPECT_EQ(bits(m.rx_power_w), bits(rx_power_w)) << "epoch " << epoch;
    EXPECT_EQ(bits(m.peak_to_average),
              bits(dsp::peak_to_average_power(seg.up)))
        << "epoch " << epoch;
    EXPECT_EQ(bits(m.beats.up_hz.value()), bits(beats.up_hz.value()))
        << "epoch " << epoch;
    EXPECT_EQ(bits(m.beats.down_hz.value()), bits(beats.down_hz.value()))
        << "epoch " << epoch;
    EXPECT_EQ(bits(m.estimate.distance_m.value()),
              bits(estimate.distance_m.value()))
        << "epoch " << epoch;
    EXPECT_EQ(bits(m.estimate.range_rate_mps.value()),
              bits(estimate.range_rate_mps.value()))
        << "epoch " << epoch;
  }
}

// Accuracy sweep across the radar's specified range window.
class RangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(RangeSweep, RootMusicRangeWithinOneMeter) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 101);
  const double d = GetParam();
  const auto m = radar.measure(target_scene(d, -1.0, cfg));
  EXPECT_TRUE(m.coherent_echo) << "range " << d;
  EXPECT_NEAR(m.estimate.distance_m.value(), d, 1.0) << "range " << d;
}

INSTANTIATE_TEST_SUITE_P(AcrossBand, RangeSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 40.0, 60.0, 80.0,
                                           100.0, 120.0, 150.0, 180.0, 200.0));

}  // namespace
}  // namespace safe::radar
