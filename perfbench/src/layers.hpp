// The layer split of one vehicle-epoch, recorded from outside the program.
//
// traced_epoch() drives one follower's epoch through the layers' public
// calls in exactly the order core::CarFollowingSimulation::run() and
// platoon::PlatoonSimulation::run() do, with a span around each call:
//
//   step ─┬─ attack.apply        AttackModel::apply
//         ├─ radar.measure       RadarProcessor::measure
//         ├─ core.pipeline       SafeMeasurementPipeline::process_scored
//         └─ control.acc_step    AccController::step
//
// Scene building, vehicle::step and trace rows are the step's remainder
// (step.other). Work that only the benchmark does is deferred until the step
// span has closed, so it never counts toward step time:
//   * the radar sub-spans (synthesize, coherence FFT, periodogram,
//     covariance, eigensolve, root-MUSIC, tone power) come from replaying
//     the epoch's EchoScene on a copy of the RadarProcessor taken just
//     before measure(); the real noise stream is untouched, and the replay
//     must reproduce the measurement bit for bit;
//   * detect.observe times a shadow detector backend fed the same
//     detect::Observation the pipeline built; its verdict must match.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "attack/attack.hpp"
#include "control/acc.hpp"
#include "core/pipeline.hpp"
#include "detect/backend.hpp"
#include "radar/processor.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"

namespace perfbench {

struct LayerNames {
  explicit LayerNames(Tracer& tracer);

  std::uint32_t step, attack_apply, radar_measure, pipeline, acc_step;
  std::uint32_t radar_synthesize, coherence_fft, periodogram, covariance,
      eigensolve, root_music, tone_power, observe;
};

/// One follower's stack, as the program's simulations build it.
struct FollowerStack {
  safe::radar::RadarProcessor& radar;
  safe::core::SafeMeasurementPipeline& pipeline;
  safe::control::AccController& acc;
  safe::detect::DetectorBackend& shadow;
};

/// Benchmark-only work of one epoch, run after its step span closes.
struct DeferredEpoch {
  std::optional<safe::radar::RadarProcessor> radar_before;
  safe::radar::EchoScene scene;
  safe::radar::RadarMeasurement measured;
  safe::detect::Observation observation;
  bool attack_active = false;
  bool under_attack = false;
  bool estimated = false;
  std::uint64_t measure_span = 0;
  std::uint64_t pipeline_span = 0;
};

struct EpochResult {
  safe::radar::RadarMeasurement measurement;
  safe::core::SafeMeasurement safe;
  bool attack_active = false;
  safe::control::AccInputs inputs;
  safe::units::MetersPerSecond2 accel{0.0};
};

/// Counts gathered at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t epochs = 0;
  std::uint64_t echoes = 0;
  std::uint64_t coherent = 0;
  std::uint64_t estimated = 0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t shadow_mismatches = 0;
  std::vector<double> rooting_us;  ///< root_music - covariance - eigensolve
  double sink = 0.0;  ///< keeps replayed results observable
};

/// Attack -> measure -> pipeline -> ACC for one epoch of a defended ACC
/// follower. `attack` is null when no attack applies to this epoch.
EpochResult traced_epoch(Tracer& tracer, const LayerNames& names,
                         std::uint64_t step_span, FollowerStack& stack,
                         safe::attack::AttackModel* attack,
                         const safe::attack::AttackContext& context,
                         safe::radar::EchoScene& scene,
                         safe::units::MetersPerSecond follower_speed,
                         std::int64_t k, DeferredEpoch& deferred);

/// Runs the deferred radar replay and shadow detector of one epoch.
void replay_epoch(Tracer& tracer, const LayerNames& names,
                  DeferredEpoch& deferred, FollowerStack& stack,
                  LayerCounts& counts);

/// True when two traces have the same columns and bit-identical values.
bool traces_identical(const safe::sim::Trace& a, const safe::sim::Trace& b);

/// Per-layer figures every traced workload reports (zeros where a layer
/// does not run on that workload).
struct LayerFigures {
  std::vector<double> step_us, other_us, measure_us, synthesize_us,
      coherence_us, periodogram_us, covariance_us, eigensolve_us,
      root_music_us, rooting_us, tone_power_us, attack_us, pipeline_us,
      observe_us, acc_us;
  double radar_share = 0.0;
  double echoes_per_measure = 0.0;
  double coherent_ratio = 0.0;
  double holdover_ratio = 0.0;
};

LayerFigures layer_figures(const Tracer& tracer, const LayerNames& names,
                           const LayerCounts& counts);

/// Adds the radar/dsp/attack/core/control/step metrics to `report`.
void report_layer_figures(const LayerFigures& figures, Report& report);

}  // namespace perfbench
