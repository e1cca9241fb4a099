// platoon-fft-n16: one platoon::make_paper_platoon string on the calling
// thread — n=16, attacked=1, cut-in into follower 8 at t=120 s for 30 s,
// multi-target scenes, DoS attack, periodogram estimator.
//
// Why: root-MUSIC never runs and runtime is idle, so this is the bypass
// workload for both; three zero-padded 4096-point FFTs per measure
// (coherence + two periodograms) are nearly the whole step. Scenes carry
// 2-3 echoes, so a change that speeds single-echo work at the cost of
// multi-echo synthesis or the FFT path loses here.
#include <cmath>

#include "core/scenario.hpp"
#include "detect/spec.hpp"
#include "fault/schedule.hpp"
#include "layers.hpp"
#include "platoon/platoon.hpp"
#include "radar/link_budget.hpp"
#include "runtime/seed.hpp"
#include "vehicle/longitudinal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = safe::core;
namespace platoon = safe::platoon;
namespace units = safe::units;

constexpr const char* kPlatoonSpec =
    "n=16,attacked=1,cutin_into=8,cutin_start=120,cutin_len=30";
// Four runs give 4 x 299 epoch gaps: enough for a supported p99.
constexpr int kMinRuns = 4;

core::ScenarioOptions platoon_options(std::uint64_t seed) {
  core::ScenarioOptions o;
  o.attack = core::AttackKind::kDosJammer;
  o.estimator = safe::radar::BeatEstimator::kPeriodogram;
  o.seed = seed;
  o.platoon_spec = kPlatoonSpec;
  return o;
}

std::size_t vehicle_steps(const platoon::PlatoonScenario& s) {
  return (s.config.platoon.size - 1) *
         static_cast<std::size_t>(s.config.base.horizon_steps);
}

/// One epoch of the whole string, so lazy initialization is paid in set-up
/// rather than in the timed window.
void warm_up(const platoon::PlatoonScenario& scenario) {
  platoon::PlatoonScenario one = scenario;
  one.config.base.horizon_steps = 1;
  (void)one.run();
}

std::uint64_t trace_digest(const safe::sim::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t c = 0; c < trace.num_columns(); ++c) {
    const std::vector<double>& col = trace.column(c);
    h = fnv1a64(col.data(), col.size() * sizeof(double), h);
  }
  return h;
}

/// Output checks on one run; true when the run passed.
bool check_run(const platoon::PlatoonResult& r, Report& report) {
  bool ok = report.check(!r.collided, "platoon collided at follower " +
                                          std::to_string(r.collision_index));
  ok = report.check(!r.followers.empty() &&
                        r.followers.front().detection_step.has_value(),
                    "attacked follower 1 never detected the attack") && ok;
  ok = report.check(r.metrics.nonfinite_controller_inputs_total == 0,
                    "non-finite controller inputs") && ok;
  bool finite = true;
  for (std::size_t c = 0; c < r.trace.num_columns(); ++c) {
    for (const double v : r.trace.column(c)) finite = finite && std::isfinite(v);
  }
  ok = report.check(finite, "platoon trace holds a non-finite value") && ok;
  return ok;
}

// --- traced platoon run -----------------------------------------------------

struct TracedFollower {
  safe::radar::RadarProcessor radar;
  core::SafeMeasurementPipeline pipeline;
  safe::control::AccController acc;
  safe::detect::DetectorBackendPtr shadow;
  safe::vehicle::VehicleState state;
  std::optional<std::int64_t> detection_step;
};

/// platoon::PlatoonSimulation::run() for defended ACC followers without
/// sensor faults (the workload's options), with the layer split recorded.
/// Returns the trace and per-follower detection steps.
std::pair<safe::sim::Trace, std::vector<std::optional<std::int64_t>>>
traced_platoon_run(const platoon::PlatoonScenario& scenario, Tracer& tracer,
                   const LayerNames& names, LayerCounts& counts,
                   double& step_s) {
  const core::CarFollowingConfig& base = scenario.config.base;
  const platoon::PlatoonOptions& po = scenario.config.platoon;
  if (!base.defense_enabled ||
      base.controller != core::FollowerController::kAccHierarchy ||
      (base.faults && !base.faults->empty())) {
    throw std::logic_error(
        "traced platoon loop covers the workload's options only");
  }
  const units::Seconds t_sample = base.sample_time_s;
  const safe::radar::FmcwParameters& wf = base.radar.waveform;
  const units::Meters initial_gap = po.initial_gap_m;
  const std::size_t n_followers = po.size - 1;

  std::unique_ptr<safe::attack::AttackModel> attack =
      scenario.attack ? scenario.attack->clone() : nullptr;
  if (attack) attack->reset();

  safe::vehicle::VehicleState leader{
      .position_m = units::Meters{static_cast<double>(n_followers) *
                                  initial_gap.value()},
      .velocity_mps = base.leader_speed_mps};
  std::vector<std::unique_ptr<TracedFollower>> followers;
  for (std::size_t i = 1; i <= n_followers; ++i) {
    const std::uint64_t seed =
        i == 1 ? base.seed
               : safe::runtime::derive_seed(
                     base.seed, safe::runtime::SeedStream::kVehicle,
                     static_cast<std::uint64_t>(i));
    followers.push_back(std::make_unique<TracedFollower>(TracedFollower{
        .radar = safe::radar::RadarProcessor(base.radar, seed),
        .pipeline = core::make_default_pipeline(scenario.schedule,
                                                base.pipeline),
        .acc = safe::control::AccController(base.acc),
        .shadow = safe::detect::make_detector(base.pipeline.detector_spec,
                                              base.pipeline.detector),
        .state = safe::vehicle::VehicleState{
            .position_m = units::Meters{static_cast<double>(n_followers - i) *
                                        initial_gap.value()},
            .velocity_mps = base.follower_speed_mps},
        .detection_step = std::nullopt,
    }));
  }

  safe::sim::Trace trace(platoon::PlatoonResult::columns(po.size));
  bool collided = false;
  DeferredEpoch deferred;
  for (std::int64_t k = 0; k < base.horizon_steps; ++k) {
    const units::Seconds t = static_cast<double>(k) * t_sample;
    if (!collided) {
      leader = safe::vehicle::step(leader, scenario.leader->acceleration(t),
                                   t_sample);
    }
    std::vector<double> row;
    row.reserve(2 + 6 * n_followers);
    row.push_back(t.value());
    row.push_back(leader.velocity_mps.value());

    for (std::size_t i = 1; i <= n_followers; ++i) {
      TracedFollower& f = *followers[i - 1];
      FollowerStack stack{f.radar, f.pipeline, f.acc, *f.shadow};
      std::uint64_t step_id = 0;
      {
        Tracer::Scope step(tracer, names.step, 0);
        step_id = step.id();
        const safe::vehicle::VehicleState& pred =
            i == 1 ? leader : followers[i - 2]->state;
        const units::Meters true_gap = safe::vehicle::gap(pred, f.state);
        const units::MetersPerSecond true_dv =
            safe::vehicle::relative_velocity(pred, f.state);

        safe::radar::EchoScene scene;
        scene.tx_enabled = !f.pipeline.probe_suppressed(k);
        scene.noise_power_w = base.radar.noise_floor_w;
        const bool in_window =
            true_gap >= wf.min_range_m && true_gap <= wf.max_range_m;
        double echo_power = 0.0;
        if (in_window && !collided) {
          echo_power = safe::radar::received_echo_power_w(wf, true_gap,
                                                          base.target_rcs_m2);
          if (scene.tx_enabled) {
            scene.echoes.push_back(safe::radar::EchoComponent{
                .distance_m = true_gap,
                .range_rate_mps = true_dv,
                .power_w = echo_power,
            });
          }
        }
        if (po.multi_target && i >= 2 && scene.tx_enabled && !collided) {
          const safe::vehicle::VehicleState& two_ahead =
              i == 2 ? leader : followers[i - 3]->state;
          const units::Meters far_gap = safe::vehicle::gap(two_ahead, f.state);
          if (far_gap >= wf.min_range_m && far_gap <= wf.max_range_m) {
            scene.echoes.push_back(safe::radar::EchoComponent{
                .distance_m = far_gap,
                .range_rate_mps =
                    safe::vehicle::relative_velocity(two_ahead, f.state),
                .power_w = safe::radar::received_echo_power_w(
                    wf, far_gap,
                    base.target_rcs_m2 * po.second_target_rcs_scale),
            });
          }
        }
        if (po.cutin.enabled() && po.cutin.into == i && scene.tx_enabled &&
            !collided && t >= po.cutin.start_s &&
            t < po.cutin.start_s + po.cutin.duration_s) {
          const units::Meters cut_gap{po.cutin.gap_fraction *
                                      true_gap.value()};
          if (cut_gap >= wf.min_range_m && cut_gap <= wf.max_range_m) {
            scene.echoes.push_back(safe::radar::EchoComponent{
                .distance_m = cut_gap,
                .range_rate_mps = true_dv,
                .power_w = safe::radar::received_echo_power_w(
                    wf, cut_gap, base.target_rcs_m2),
            });
          }
        }
        const safe::attack::AttackContext ctx{
            .time_s = t,
            .step = k,
            .true_distance_m = true_gap,
            .true_range_rate_mps = true_dv,
            .true_echo_power_w = echo_power,
            .waveform = &wf,
        };
        const bool attacked = i == po.attacked && !collided;
        const EpochResult e = traced_epoch(
            tracer, names, step_id, stack, attacked ? attack.get() : nullptr,
            ctx, scene, f.state.velocity_mps, k, deferred);
        if (!collided) {
          f.state = safe::vehicle::step(f.state, e.accel, t_sample);
        }
        const units::Meters gap_after = safe::vehicle::gap(pred, f.state);
        if (!collided && gap_after <= units::Meters{0.0}) collided = true;
        row.push_back(true_gap.value());
        row.push_back(e.safe.distance_m.value());
        row.push_back(f.state.velocity_mps.value());
        row.push_back(f.state.acceleration_mps2.value());
        row.push_back(e.attack_active ? 1.0 : 0.0);
        row.push_back(static_cast<double>(e.safe.degradation));
      }
      const Tracer::Span& s = tracer.span(step_id);
      step_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      replay_epoch(tracer, names, deferred, stack, counts);
    }
    trace.append_row(row);
  }
  std::vector<std::optional<std::int64_t>> detections;
  for (const auto& f : followers) {
    detections.push_back(f->pipeline.detection_step());
  }
  return {std::move(trace), std::move(detections)};
}

Report run_platoon_untraced(const RunOptions& options) {
  Report report;
  report.attempted_base = "vehicle-steps";
  platoon::PlatoonScenario scenario;
  std::vector<std::int64_t> stamps;
  const Normalized setup_time = timed_setup(15, [&](int) {
    scenario = platoon::make_paper_platoon(platoon_options(options.seed));
    warm_up(scenario);
    scenario.leader = std::make_shared<TimedLeader>(scenario.leader, &stamps);
  });
  const std::size_t steps_per_run = vehicle_steps(scenario);

  std::vector<Repetition> reps;
  std::vector<double> pooled_us;  // every run's epochs, for the p99
  double wall_s = 0.0;
  std::uint64_t first_digest = 0;
  int runs = 0;
  while (runs < kMinRuns || wall_s < options.seconds) {
    stamps.clear();
    stamps.reserve(static_cast<std::size_t>(scenario.config.base.horizon_steps));
    const double calibration_before_s = host_calibration_s(1);
    const std::int64_t t0 = now_ns();
    const platoon::PlatoonResult result = scenario.run();
    const double run_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const double calibration_s =
        0.5 * (calibration_before_s + host_calibration_s(1));
    wall_s += run_s;
    ++runs;
    std::vector<double> epoch_us;
    append_gaps_us(stamps, epoch_us);
    pooled_us.insert(pooled_us.end(), epoch_us.begin(), epoch_us.end());
    reps.push_back(Repetition{
        .rate = static_cast<double>(steps_per_run) / run_s,
        .latency_p50_us = summarize(std::move(epoch_us)).p50,
        .calibration_s = calibration_s,
    });

    report.attempted += steps_per_run;
    if (!check_run(result, report)) report.failed += steps_per_run;
    const std::uint64_t digest = trace_digest(result.trace);
    if (runs == 1) {
      first_digest = digest;
      report.fact("follower1_detection_step",
                  std::to_string(result.followers.front().detection_step
                                     ? *result.followers.front().detection_step
                                     : -1));
      report.fact("shock_depth", std::to_string(result.metrics.shock_depth));
    } else {
      report.check(digest == first_digest,
                   "platoon trace digest changed between repeats");
    }
  }
  report_repetitions(report, setup_time, reps,
                     summarize(std::move(pooled_us)));
  report.fact("throughput",
              "vehicle_steps_per_s = (n-1)*horizon / wall s, median of runs");
  report.fact("latency",
              "one string step of all 15 followers, median of runs; p99 "
              "pooled over runs");
  std::string rates;
  for (const Repetition& r : reps) {
    rates += std::to_string(r.rate) + "@" + std::to_string(r.calibration_s) +
             "s ";
  }
  report.fact("run_vehicle_steps_per_s_at_calibration", rates);
  report.fact("trace_digest", hex64(first_digest));
  return report;
}

Report run_platoon_traced(const RunOptions& options) {
  Report report;
  report.attempted_base = "vehicle-steps";
  const platoon::PlatoonScenario scenario =
      platoon::make_paper_platoon(platoon_options(options.seed));
  warm_up(scenario);
  const std::size_t steps = vehicle_steps(scenario);

  Tracer tracer;
  const LayerNames names(tracer);
  LayerCounts counts;
  tracer.set_request(1);
  double traced_step_s = 0.0;
  const auto [trace, detections] =
      traced_platoon_run(scenario, tracer, names, counts, traced_step_s);

  const std::int64_t t0 = now_ns();
  const platoon::PlatoonResult reference = scenario.run();
  const double reference_s = static_cast<double>(now_ns() - t0) * 1e-9;
  report.attempted = steps;
  if (!check_run(reference, report)) report.failed = steps;

  bool same = traces_identical(trace, reference.trace) &&
              detections.size() == reference.followers.size();
  for (std::size_t i = 0; same && i < detections.size(); ++i) {
    same = detections[i] == reference.followers[i].detection_step;
  }
  report.check(same,
               "traced platoon loop diverged from PlatoonSimulation::run()");
  report.check(counts.replay_mismatches == 0,
               std::to_string(counts.replay_mismatches) +
                   " radar replays differ from measure()");
  report.check(counts.shadow_mismatches == 0,
               std::to_string(counts.shadow_mismatches) +
                   " shadow detector verdicts differ from the pipeline");

  report_layer_figures(layer_figures(tracer, names, counts), report);
  report_idle_runtime(report);
  report_idle_serve(report);
  report.metric("trace.overhead", traced_step_s / reference_s - 1.0, "ratio");
  report.fact("fidelity", same ? "traced loop bit-identical to run()"
                               : "traced loop DIVERGED from run()");
  report.fact("replay_sink", std::to_string(counts.sink));
  write_spans(tracer, options);
  return report;
}

}  // namespace

Report run_platoon(const RunOptions& options) {
  return options.trace ? run_platoon_traced(options)
                       : run_platoon_untraced(options);
}

}  // namespace perfbench
