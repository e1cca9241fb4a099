// Unit tests for the pluggable detection subsystem: the detector_spec
// mini-language, every DetectorBackend, the CRA-backend equivalence
// guarantee, and the pipeline/HealthMonitor behaviour when the active
// detector flaps around the clearance debounce window.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "detect/backends.hpp"
#include "detect/spec.hpp"

namespace safe::detect {
namespace {

// --- spec mini-language ----------------------------------------------------

TEST(DetectorSpec, EmptyAndBareNamesAreOk) {
  EXPECT_EQ(check_detector_spec("").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("cra").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("chi2").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("ar").status, spec::Status::kOk);
}

TEST(DetectorSpec, ParameterizedSpecsAreOk) {
  EXPECT_EQ(check_detector_spec("cra:clear=2").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("chi2:threshold=9.21,window=16").status,
            spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("ar:order=6,consecutive=2").status,
            spec::Status::kOk);
  EXPECT_EQ(
      check_detector_spec("fusion:members=cra+chi2,quorum=1").status,
      spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("fusion:members=cra+chi2+ar").status,
            spec::Status::kOk);
}

TEST(DetectorSpec, UnknownBackendIsDistinctFromMalformed) {
  const spec::Check unknown = check_detector_spec("lstm");
  EXPECT_EQ(unknown.status, spec::Status::kUnknownKind);
  EXPECT_NE(unknown.message.find("lstm"), std::string::npos);

  // A fusion member that names no backend is also kUnknownBackend.
  EXPECT_EQ(check_detector_spec("fusion:members=cra+lstm").status,
            spec::Status::kUnknownKind);

  EXPECT_EQ(check_detector_spec("chi2:threshold=").status,
            spec::Status::kMalformed);
}

TEST(DetectorSpec, MalformedSpecsAreRejected) {
  const char* const bad[] = {
      "chi2:threshold",                    // no '='
      "chi2:=5",                           // empty key
      "chi2:threshold=5,threshold=6",      // duplicate key
      "chi2:bogus=1",                      // unknown key
      "chi2:threshold=abc",                // not a number
      "chi2:threshold=inf",                // numbers are finite
      "chi2:threshold=-1",                 // must be > 0
      "chi2:window=0",                     // counts are positive
      "chi2:window=-3",                    // negative count
      "chi2:forgetting=1.5",               // not in (0, 1)
      "chi2:power=2",                      // flag is 0 or 1
      "ar:order=17",                       // order capped at 16
      "fusion",                            // members required
      "fusion:members=+",                  // empty member list
      "fusion:members=cra+chi2,quorum=3",  // quorum > members
      "fusion:members=fusion",             // no nesting
      "bad name:x=1",                      // invalid backend name
  };
  for (const char* spec : bad) {
    EXPECT_EQ(check_detector_spec(spec).status, spec::Status::kMalformed)
        << spec;
    EXPECT_THROW(static_cast<void>(make_detector(spec)),
                 std::invalid_argument)
        << spec;
  }
}

TEST(DetectorSpec, MakeDetectorBuildsTheNamedBackend) {
  EXPECT_EQ(make_detector("")->name(), "cra");
  EXPECT_EQ(make_detector("cra")->name(), "cra");
  EXPECT_EQ(make_detector("chi2")->name(), "chi2");
  EXPECT_EQ(make_detector("ar")->name(), "ar");
  EXPECT_EQ(make_detector("fusion:members=cra+chi2")->name(),
            "fusion(cra+chi2)");
  EXPECT_THROW(static_cast<void>(make_detector("lstm")),
               std::invalid_argument);
}

TEST(DetectorSpec, EmptySpecInheritsCraDefaults) {
  cra::DetectorOptions defaults;
  defaults.clear_after_silent_challenges = 3;
  auto detector = make_detector("", defaults);

  // Jam the first challenge, then require three silent ones to clear.
  Observation jammed;
  jammed.challenge_slot = true;
  jammed.receiver_nonzero = true;
  ASSERT_TRUE(detector->observe(jammed).under_attack);

  Observation silent;
  silent.challenge_slot = true;
  silent.step = 1;
  EXPECT_FALSE(detector->observe(silent).attack_cleared);
  silent.step = 2;
  EXPECT_FALSE(detector->observe(silent).attack_cleared);
  silent.step = 3;
  EXPECT_TRUE(detector->observe(silent).attack_cleared);
}

// --- backend behaviour -----------------------------------------------------

Observation echo(std::int64_t step, double d, double dv) {
  Observation obs;
  obs.step = step;
  obs.receiver_nonzero = true;
  obs.coherent_echo = true;
  obs.distance = units::Meters{d};
  obs.relative_velocity = units::MetersPerSecond{dv};
  return obs;
}

TEST(ChiSquareBackend, DetectsAJumpAndClearsAfterQuiet) {
  ChiSquareBackendOptions options;
  options.required_consecutive = 1;
  options.clear_after_quiet = 2;
  ChiSquareBackend detector(options);

  // Smooth approach: constant first difference, tiny residual variance.
  std::int64_t k = 0;
  for (; k < 20; ++k) {
    const auto v =
        detector.observe(echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(v.under_attack) << "step " << k;
  }

  // A counterfeit +30 m offset is one huge first-difference outlier.
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  const auto started = detector.observe(echo(k, base + 30.0, -0.5));
  EXPECT_TRUE(started.under_attack);
  EXPECT_TRUE(started.attack_started);
  ASSERT_TRUE(detector.detection_step().has_value());
  EXPECT_EQ(*detector.detection_step(), k);

  // The offset stream is self-consistent from here on: residuals quiet
  // down and the attack clears after the debounce count (2 quiet samples).
  EXPECT_FALSE(
      detector.observe(echo(k + 1, base + 29.5, -0.5)).attack_cleared);
  EXPECT_TRUE(
      detector.observe(echo(k + 2, base + 29.0, -0.5)).attack_cleared);
  EXPECT_FALSE(detector.under_attack());
}

TEST(ChiSquareBackend, PowerAlarmWithoutEchoIsJamming) {
  ChiSquareBackend detector;  // required_consecutive = 2
  Observation jam;
  jam.receiver_nonzero = true;
  jam.coherent_echo = false;  // wideband power, no resolvable echo
  EXPECT_FALSE(detector.observe(jam).under_attack);
  jam.step = 1;
  EXPECT_TRUE(detector.observe(jam).under_attack);
}

TEST(ChiSquareBackend, ChallengeSlotsMakeNoClaim) {
  ChiSquareBackend detector;
  Observation slot;
  slot.challenge_slot = true;
  slot.receiver_nonzero = true;
  for (std::int64_t k = 0; k < 10; ++k) {
    slot.step = k;
    EXPECT_FALSE(detector.observe(slot).under_attack);
  }
}

TEST(ArResidualBackend, DetectsAJumpAgainstTheTrustedModel) {
  ArResidualBackendOptions options;
  options.required_consecutive = 2;
  ArResidualBackend detector(options);

  // Long clean run: the residual variance must forget the untrained-model
  // warm-up transients before a jump is a statistical outlier.
  std::int64_t k = 0;
  for (; k < 200; ++k) {
    const auto v =
        detector.observe(echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(v.under_attack) << "step " << k;
  }
  // The trusted AR model quarantines alarmed samples, so a held +40 m
  // offset keeps scoring against the clean-trajectory prediction: two
  // consecutive alarms declare the attack.
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  static_cast<void>(detector.observe(echo(k, base + 40.0, -0.5)));
  const auto started = detector.observe(echo(k + 1, base + 39.5, -0.5));
  EXPECT_TRUE(started.under_attack);
  EXPECT_TRUE(started.attack_started);
}

TEST(FusionBackend, RequiresQuorumAndValidatesConstruction) {
  std::vector<DetectorBackendPtr> children;
  children.push_back(std::make_unique<ChiSquareBackend>());
  children.push_back(std::make_unique<CraBackend>());
  EXPECT_THROW(FusionBackend(std::move(children), 3), std::invalid_argument);
  EXPECT_THROW(FusionBackend({}, 1), std::invalid_argument);

  // quorum=1: either child's alarm trips the fusion. The CRA child alarms
  // on a non-silent challenge; the chi-square child stays quiet there.
  auto fusion = make_detector("fusion:members=cra+chi2,quorum=1");
  Observation jammed_challenge;
  jammed_challenge.challenge_slot = true;
  jammed_challenge.receiver_nonzero = true;
  const auto v = fusion->observe(jammed_challenge);
  EXPECT_TRUE(v.under_attack);
  EXPECT_TRUE(v.attack_started);

  // quorum=2: one vote is not enough.
  auto strict = make_detector("fusion:members=cra+chi2,quorum=2");
  EXPECT_FALSE(strict->observe(jammed_challenge).under_attack);
}

TEST(DetectorBackend, ScoringPopulatesStats) {
  auto detector = make_detector("chi2:consecutive=1,window=4");
  std::int64_t k = 0;
  for (; k < 12; ++k) {
    static_cast<void>(detector->observe_scored(
        echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5), false));
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  static_cast<void>(
      detector->observe_scored(echo(k, base + 30.0, -0.5), true));
  const cra::DetectionStats& stats = detector->stats();
  EXPECT_GT(stats.true_negatives, 0u);
  EXPECT_EQ(stats.true_positives, 1u);
  EXPECT_EQ(stats.false_positives, 0u);
}

// --- pipeline integration --------------------------------------------------

std::shared_ptr<const cra::ChallengeSchedule> schedule_with(
    std::vector<std::int64_t> steps) {
  return std::make_shared<cra::FixedChallengeSchedule>(std::move(steps));
}

radar::RadarMeasurement radar_echo(double d, double dv) {
  radar::RadarMeasurement m;
  m.estimate = radar::RangeRate{.distance_m = units::Meters{d},
                                .range_rate_mps = units::MetersPerSecond{dv}};
  m.coherent_echo = true;
  m.peak_to_average = 500.0;
  return m;
}

radar::RadarMeasurement radar_jam() {
  radar::RadarMeasurement m;
  m.coherent_echo = false;
  m.power_alarm = true;
  return m;
}

TEST(PipelineDetector, CraSpecIsIdenticalToDefault) {
  core::PipelineOptions spec_options;
  spec_options.detector_spec = "cra";
  auto with_spec =
      core::make_default_pipeline(schedule_with({5, 10, 15}), spec_options);
  auto with_default = core::make_default_pipeline(schedule_with({5, 10, 15}));
  EXPECT_EQ(with_spec.detector_name(), "cra");

  // Clean stream, a jammed challenge, holdover, then silent clearance: the
  // two pipelines must agree field for field at every step.
  for (std::int64_t k = 0; k < 20; ++k) {
    radar::RadarMeasurement m;
    if (k == 5) {
      m = radar_jam();  // challenge slot violated: detection
    } else if (k == 10 || k == 15) {
      m = radar::RadarMeasurement{};  // silent challenge: clearance path
    } else {
      m = radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5);
    }
    const auto a = with_spec.process(k, m);
    const auto b = with_default.process(k, m);
    EXPECT_EQ(a.under_attack, b.under_attack) << "step " << k;
    EXPECT_EQ(a.attack_started, b.attack_started) << "step " << k;
    EXPECT_EQ(a.attack_cleared, b.attack_cleared) << "step " << k;
    EXPECT_EQ(a.estimated, b.estimated) << "step " << k;
    EXPECT_EQ(a.degradation, b.degradation) << "step " << k;
    EXPECT_EQ(a.distance_m.value(), b.distance_m.value()) << "step " << k;
    EXPECT_EQ(a.relative_velocity_mps.value(),
              b.relative_velocity_mps.value())
        << "step " << k;
  }
}

TEST(PipelineDetector, BadSpecThrowsAtConstruction) {
  core::PipelineOptions options;
  options.detector_spec = "lstm";
  EXPECT_THROW(static_cast<void>(core::make_default_pipeline(
                   schedule_with({5}), options)),
               std::invalid_argument);
}

TEST(PipelineDetector, ChiSquareBackendDrivesTheDegradationMachine) {
  core::PipelineOptions options;
  options.detector_spec = "chi2:consecutive=1,window=4,clear=2";
  // No challenge slots in range: chi2 needs no challenge hardware.
  auto p = core::make_default_pipeline(schedule_with({1000}), options);
  EXPECT_EQ(p.detector_name(), "chi2");

  std::int64_t k = 0;
  for (; k < 12; ++k) {
    const auto safe =
        p.process(k, radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(safe.under_attack);
    EXPECT_EQ(safe.degradation, core::DegradationState::kClean);
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  const auto attacked = p.process(k, radar_echo(base + 30.0, -0.5));
  EXPECT_TRUE(attacked.under_attack);
  EXPECT_TRUE(attacked.attack_started);
  EXPECT_TRUE(attacked.estimated);  // holdover substitutes immediately
  EXPECT_EQ(attacked.degradation, core::DegradationState::kUnderAttack);
}

// The satellite regression: a detector that flaps attack -> quiet -> attack
// inside the clearance debounce window must restart the quiet count without
// clear/start churn, keep the holdover budget counting across the flap, and
// only release the latched safe stop once a trusted sample lands after
// genuine clearance.
TEST(PipelineDetector, FlappingDetectorRespectsClearanceDebounce) {
  core::PipelineOptions options;
  options.detector_spec = "chi2:consecutive=1,window=4,clear=3";
  options.health.max_holdover_steps = 4;
  auto p = core::make_default_pipeline(schedule_with({1000}), options);

  std::int64_t k = 0;
  for (; k < 12; ++k) {
    static_cast<void>(
        p.process(k, radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5)));
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);

  // Attack: one outlier declares it (consecutive=1).
  ASSERT_TRUE(p.process(k, radar_echo(base + 30.0, -0.5)).under_attack);

  // One quiet sample is NOT enough to clear (clear=3 debounce)...
  const auto quiet1 = p.process(k + 1, radar_echo(base + 29.5, -0.5));
  EXPECT_FALSE(quiet1.attack_cleared);
  EXPECT_TRUE(quiet1.under_attack);

  // ...and a fresh outlier inside the window restarts the quiet count
  // without ever leaving the attacked state (no clear/start churn).
  const auto flap = p.process(k + 2, radar_echo(base - 10.0, -0.5));
  EXPECT_TRUE(flap.under_attack);
  EXPECT_FALSE(flap.attack_started) << "still the same attack";
  EXPECT_FALSE(flap.attack_cleared);

  // The holdover budget keeps counting across the flap: with
  // max_holdover_steps=4 the degraded safe stop latches before the clear=3
  // debounce can possibly be satisfied.
  const auto quiet2 = p.process(k + 3, radar_echo(base - 10.0, -0.5));
  EXPECT_FALSE(quiet2.attack_cleared);
  const auto quiet3 = p.process(k + 4, radar_echo(base - 10.5, -0.5));
  EXPECT_FALSE(quiet3.attack_cleared);
  EXPECT_TRUE(quiet2.safe_stop || quiet3.safe_stop);
  EXPECT_GE(p.health_stats().safe_stop_entries, 1u);

  // Clearance lands on the third consecutive quiet sample; from the next
  // trusted sample on, the attack and the latched safe stop are both gone.
  const auto cleared = p.process(k + 5, radar_echo(base - 11.0, -0.5));
  EXPECT_TRUE(cleared.attack_cleared);
  const auto released = p.process(k + 6, radar_echo(base - 11.5, -0.5));
  EXPECT_FALSE(released.under_attack);
  EXPECT_FALSE(released.safe_stop);
  EXPECT_EQ(released.degradation, core::DegradationState::kClean);
}

}  // namespace
}  // namespace safe::detect
