#include "core/follower.hpp"

#include <cmath>
#include <utility>

#include "control/idm.hpp"
#include "radar/link_budget.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::core {

namespace units = safe::units;

namespace {

// The controller stage is the tail of the per-step chain (modulate ->
// channel -> demodulate/CFAR -> CRA check -> RLS -> ACC); the radar and
// pipeline stages carry their own spans, this closes the profile.
const telemetry::MetricId& controller_ns_metric() {
  static const telemetry::MetricId id =
      telemetry::duration_histogram("control.step_ns");
  return id;
}

}  // namespace

Follower::Follower(const CarFollowingConfig& config, std::uint64_t radar_seed,
                   std::shared_ptr<const cra::ChallengeSchedule> schedule,
                   const attack::AttackModel* attack,
                   const fault::FaultSchedule* faults,
                   vehicle::VehicleState initial)
    : config_(config),
      radar_(config.radar, radar_seed),
      pipeline_(make_default_pipeline(std::move(schedule), config.pipeline)),
      acc_(config.acc),
      faults_(faults ? *faults : fault::FaultSchedule{}),
      attack_(attack ? attack->clone() : nullptr),
      state_(initial) {
  // Stream state (stuck frames, challenge counts) and entrainment-style
  // lock-on machines are per-run.
  faults_.reset();
  if (attack_) attack_->reset();
}

Sensed Follower::sense(std::int64_t k, units::Seconds t,
                       const vehicle::VehicleState& predecessor, bool frozen,
                       std::span<const Reflector> extras) {
  const radar::FmcwParameters& wf = config_.radar.waveform;
  const auto in_window = [&wf](units::Meters d) {
    return d >= wf.min_range_m && d <= wf.max_range_m;
  };
  Sensed out;
  out.true_gap_m = vehicle::gap(predecessor, state_);
  out.true_dv_mps = vehicle::relative_velocity(predecessor, state_);

  // --- RF scene: genuine echo if the probe radiates and the target is in
  // the radar's range window. The attacker sees the echo power either way.
  radar::EchoScene scene;
  scene.tx_enabled = !pipeline_.probe_suppressed(k);
  scene.noise_power_w = config_.radar.noise_floor_w;
  double echo_power = 0.0;
  if (in_window(out.true_gap_m) && !frozen) {
    echo_power = radar::received_echo_power_w(wf, out.true_gap_m,
                                              config_.target_rcs_m2);
    if (scene.tx_enabled) {
      scene.echoes.push_back(radar::EchoComponent{
          .distance_m = out.true_gap_m,
          .range_rate_mps = out.true_dv_mps,
          .power_w = echo_power,
      });
    }
  }
  if (scene.tx_enabled && !frozen) {
    for (const Reflector& r : extras) {
      if (!in_window(r.distance_m)) continue;
      scene.echoes.push_back(radar::EchoComponent{
          .distance_m = r.distance_m,
          .range_rate_mps = r.range_rate_mps,
          .power_w = radar::received_echo_power_w(wf, r.distance_m, r.rcs_m2),
      });
    }
  }

  if (attack_ && !frozen) {
    const attack::AttackContext ctx{
        .time_s = t,
        .step = k,
        .true_distance_m = out.true_gap_m,
        .true_range_rate_mps = out.true_dv_mps,
        .true_echo_power_w = echo_power,
        .waveform = &wf,
    };
    out.attack_active = attack_->apply(ctx, scene);
  }

  // --- Radar receiver (+ post-digitization sensor faults, if scheduled).
  out.measurement = radar_.measure(scene);
  if (!faults_.empty()) {
    out.measurement =
        faults_.apply(k, pipeline_.probe_suppressed(k), out.measurement);
  }
  return out;
}

SafeMeasurement Follower::act(std::int64_t k, const Sensed& sensed,
                              bool frozen) {
  const radar::RadarMeasurement& meas = sensed.measurement;

  // --- Defense pipeline (Algorithm 2).
  const SafeMeasurement safe =
      pipeline_.process_scored(k, meas, sensed.attack_active);
  if (safe.safe_stop) ++safe_stop_steps_;

  // --- Controller input selection.
  control::AccInputs inputs;
  inputs.follower_speed_mps = state_.velocity_mps;
  if (config_.defense_enabled) {
    inputs.target_present = safe.target_present;
    inputs.distance_m = safe.distance_m;
    inputs.relative_velocity_mps = safe.relative_velocity_mps;
    inputs.degraded_safe_stop = safe.safe_stop;
    inputs.degraded_holdover = safe.degradation == DegradationState::kHoldover;
  } else {
    // Raw radar consumer with a one-epoch track hold across dropouts.
    if (meas.coherent_echo) {
      held_gap_ = meas.estimate.distance_m;
      held_dv_ = meas.estimate.range_rate_mps;
      held_valid_ = true;
    }
    inputs.target_present = held_valid_;
    inputs.distance_m = held_gap_;
    inputs.relative_velocity_mps = held_dv_;
  }

  // Audit what the controller is about to consume: with the defense on,
  // the health monitor must have filtered every non-finite value.
  if (inputs.target_present &&
      (!std::isfinite(inputs.distance_m.value()) ||
       !std::isfinite(inputs.relative_velocity_mps.value()))) {
    ++nonfinite_controller_inputs_;
  }

  // --- Follower controller + dynamics (Eqs. 13-17, or IDM baseline).
  units::MetersPerSecond2 accel;
  {
    telemetry::ScopedTimer span("acc.step", "control", controller_ns_metric(),
                                telemetry::TraceDetail::kFine);
    span.arg("step", k);
    if (config_.controller == FollowerController::kAccHierarchy) {
      accel = acc_.step(inputs).actuation.actual_accel_mps2;
    } else {
      accel = inputs.target_present
                  ? control::idm_acceleration(
                        config_.idm, state_.velocity_mps,
                        state_.velocity_mps + inputs.relative_velocity_mps,
                        inputs.distance_m)
                  : control::idm_free_acceleration(config_.idm,
                                                   state_.velocity_mps);
    }
  }
  if (!frozen) {
    state_ = vehicle::step(state_, accel, config_.sample_time_s);
  }
  return safe;
}

}  // namespace safe::core
