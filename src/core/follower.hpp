// One follower's sense -> defend -> act chain for one sample epoch.
//
// This is the step kernel behind every car-following loop: the pair
// (CarFollowingSimulation), each follower of a platoon string, and the
// open-loop serving trace source (sense half only). A follower owns its
// radar receiver, its safe-measurement pipeline (Algorithm 2), its ACC, its
// per-run copies of the attack and fault schedule that target it, and its
// vehicle state. One epoch is
//
//   sense(): predecessor -> RF echo scene (+ caller extras) -> attack ->
//            FMCW radar -> sensor faults
//   act():   pipeline -> controller inputs (defended or raw track hold) ->
//            ACC or IDM -> vehicle step
//
// Because every loop calls the same two halves, a 2-vehicle platoon is
// the pair scene by construction; the loops differ only in how many
// followers they step and what they record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "attack/attack.hpp"
#include "control/acc.hpp"
#include "core/car_following.hpp"
#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "fault/schedule.hpp"
#include "radar/processor.hpp"
#include "vehicle/longitudinal.hpp"

namespace safe::core {

/// A reflector in the follower's field of view besides its predecessor (a
/// platoon's second-ahead vehicle, a cut-in ghost).
struct Reflector {
  units::Meters distance_m{0.0};
  units::MetersPerSecond range_rate_mps{0.0};
  double rcs_m2 = 0.0;
};

/// What the follower's receiver delivered in one epoch.
struct Sensed {
  units::Meters true_gap_m{0.0};
  units::MetersPerSecond true_dv_mps{0.0};
  radar::RadarMeasurement measurement;
  bool attack_active = false;  ///< The attack model radiated this epoch.
};

class Follower {
 public:
  /// `attack` and `faults` may be null. The attack is cloned and reset and
  /// the fault schedule copied and reset, so every run starts fresh.
  Follower(const CarFollowingConfig& config, std::uint64_t radar_seed,
           std::shared_ptr<const cra::ChallengeSchedule> schedule,
           const attack::AttackModel* attack,
           const fault::FaultSchedule* faults, vehicle::VehicleState initial);

  /// Sense half: measures `predecessor` at step `k` (time `t`). `extras`
  /// are appended after the genuine echo, before the attack, when the
  /// probe radiates and they sit inside the range window. Once `frozen`
  /// (after a collision) nothing radiates and the attack stays silent.
  Sensed sense(std::int64_t k, units::Seconds t,
               const vehicle::VehicleState& predecessor, bool frozen,
               std::span<const Reflector> extras = {});

  /// Act half: runs the pipeline on `sensed`, drives the controller, and
  /// steps the vehicle unless `frozen`. Returns the pipeline's output.
  SafeMeasurement act(std::int64_t k, const Sensed& sensed, bool frozen);

  [[nodiscard]] const vehicle::VehicleState& state() const { return state_; }
  /// Moves the vehicle without the controller (open-loop traces).
  void set_state(const vehicle::VehicleState& state) { state_ = state; }
  [[nodiscard]] const SafeMeasurementPipeline& pipeline() const {
    return pipeline_;
  }
  /// Epochs the pipeline spent in DEGRADED_SAFE_STOP.
  [[nodiscard]] std::size_t safe_stop_steps() const {
    return safe_stop_steps_;
  }
  /// Epochs whose selected controller inputs were not finite.
  [[nodiscard]] std::size_t nonfinite_controller_inputs() const {
    return nonfinite_controller_inputs_;
  }

 private:
  CarFollowingConfig config_;
  radar::RadarProcessor radar_;
  SafeMeasurementPipeline pipeline_;
  control::AccController acc_;
  fault::FaultSchedule faults_;
  std::unique_ptr<attack::AttackModel> attack_;
  vehicle::VehicleState state_;
  // Undefended runs still need target tracking across challenge slots and
  // dropouts: a real radar holds its last track briefly. Until the first
  // coherent echo the hold reports no target, so its values are never
  // read.
  units::Meters held_gap_{0.0};
  units::MetersPerSecond held_dv_{0.0};
  bool held_valid_ = false;
  std::size_t safe_stop_steps_ = 0;
  std::size_t nonfinite_controller_inputs_ = 0;
};

}  // namespace safe::core
