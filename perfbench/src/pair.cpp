// pair-campaign-music: a runtime::Campaign of paper pair trials through the
// default core::make_paper_scenario factory, root-MUSIC estimator, default
// CRA pipeline, horizon 300, attack axis none|dos|delay|spoof|chirp, on at
// most nproc workers.
//
// Why: root-MUSIC (covariance, 16x16 Jacobi eigensolve, rooting) is most of
// radar.measure here, and runtime (pool + ordered sinks) does all of its
// parallel work only in this workload. The spoof and chirp scenes carry two
// echoes, and the attack mix drives the pipeline through both tracking and
// RLS holdover.
#include <algorithm>
#include <cmath>

#include "core/scenario.hpp"
#include "detect/spec.hpp"
#include "layers.hpp"
#include "radar/link_budget.hpp"
#include "runtime/campaign.hpp"
#include "runtime/seed.hpp"
#include "runtime/sink.hpp"
#include "vehicle/longitudinal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = safe::core;
namespace runtime = safe::runtime;
namespace units = safe::units;

constexpr std::size_t kAttackCells = 5;      // none|dos|delay|spoof|chirp
constexpr std::size_t kTrialsPerRound = 20;  // 5 attacks x 4 scenario seeds
constexpr std::size_t kTracedTrials = 10;    // 5 attacks x 2 scenario seeds
constexpr std::uint64_t kMinRounds = 2;
constexpr int kSetupRepeats = 15;

runtime::CampaignSpec pair_spec(std::uint64_t seed, std::size_t trials) {
  runtime::CampaignSpec spec;
  spec.base.estimator = safe::radar::BeatEstimator::kRootMusic;
  spec.base.horizon_steps = 300;
  spec.trials = trials;
  spec.seed = seed;
  spec.attack_specs = {"", "dos", "delay", "spoof", "chirp"};
  return spec;
}

bool attacked(const runtime::TrialRecord& r) {
  return r.attack != core::AttackKind::kNone || !r.attack_spec.empty();
}

/// Keeps every record, in trial-id order.
class CollectingSink final : public runtime::TrialSink {
 public:
  void consume(const runtime::TrialRecord& record) override {
    records_.push_back(record);
  }
  [[nodiscard]] const std::vector<runtime::TrialRecord>& records() const {
    return records_;
  }

 private:
  std::vector<runtime::TrialRecord> records_;
};

/// FNV-1a digest of the records' JSONL.
std::uint64_t jsonl_digest(const std::vector<runtime::TrialRecord>& records) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (const runtime::TrialRecord& r : records) {
    const std::string line = runtime::to_jsonl(r);
    state = fnv1a64(line.data(), line.size(), state);
  }
  return state;
}

/// Times the wrapped sink's consume() calls (runtime.sink_us_total).
class TimedSink final : public runtime::TrialSink {
 public:
  explicit TimedSink(runtime::TrialSink& inner) : inner_(inner) {}
  void consume(const runtime::TrialRecord& record) override {
    const std::int64_t t0 = now_ns();
    inner_.consume(record);
    total_ns_ += now_ns() - t0;
  }
  void finish() override { inner_.finish(); }
  [[nodiscard]] double total_us() const {
    return static_cast<double>(total_ns_) * 1e-3;
  }

 private:
  runtime::TrialSink& inner_;
  std::int64_t total_ns_ = 0;
};

/// Output checks on one campaign's records; returns the failed trials.
std::uint64_t check_records(const std::vector<runtime::TrialRecord>& records,
                            std::size_t expected, Report& report) {
  report.check(records.size() == expected,
               "campaign delivered " + std::to_string(records.size()) +
                   " of " + std::to_string(expected) + " trials");
  std::uint64_t failed = 0;
  for (const runtime::TrialRecord& r : records) {
    const std::string id = "trial " + std::to_string(r.trial_id);
    bool ok = report.check(r.error.empty(), id + " errored: " + r.error);
    ok = report.check(r.nonfinite_controller_inputs == 0,
                      id + " fed non-finite inputs to the controller") && ok;
    ok = report.check(!r.collided, id + " collided") && ok;
    ok = report.check(!attacked(r) || r.detection_step >= 0,
                      id + " attack never detected") && ok;
    if (!ok) ++failed;
  }
  return failed + (expected - std::min(expected, records.size()));
}

struct PairSetup {
  std::unique_ptr<runtime::Campaign> campaign;
  /// Leader stamps per trial of the current round (TimedLeader targets).
  std::unique_ptr<std::vector<std::vector<std::int64_t>>> stamps;
};

PairSetup prepare_pair(std::uint64_t seed, std::size_t trials,
                       bool time_epochs) {
  PairSetup setup;
  setup.stamps = std::make_unique<std::vector<std::vector<std::int64_t>>>(
      trials);
  runtime::CampaignSpec spec = pair_spec(seed, trials);
  if (time_epochs) {
    auto* stamps = setup.stamps.get();
    spec.customize = [stamps](core::Scenario& scenario,
                              const runtime::TrialRecord& record) {
      auto& slot = (*stamps)[static_cast<std::size_t>(record.trial_id)];
      slot.clear();
      slot.reserve(static_cast<std::size_t>(scenario.config.horizon_steps));
      scenario.leader = std::make_shared<TimedLeader>(scenario.leader, &slot);
    };
  }
  setup.campaign = std::make_unique<runtime::Campaign>(std::move(spec));
  // Expand and build every trial's scenario once (validates the whole grid
  // before the clock starts), and run one epoch of each attack cell so lazy
  // initialization is paid here rather than in the timed window.
  const std::size_t cells = setup.campaign->spec().grid_cells();
  for (std::size_t t = 0; t < trials; ++t) {
    runtime::TrialRecord record;
    core::ScenarioOptions options = setup.campaign->expand(t, record);
    (void)core::make_paper_scenario(options);
    if (t < cells) {
      options.horizon_steps = 1;
      (void)core::make_paper_scenario(options).run();
    }
  }
  return setup;
}

// --- traced pair trial ------------------------------------------------------

struct TracedTrial {
  core::CarFollowingResult result;
  double step_s = 0.0;  ///< sum of step spans
};

/// core::CarFollowingSimulation::run() for a defended ACC follower without
/// sensor faults (the workload's options), with the layer split recorded.
TracedTrial traced_pair_trial(const core::Scenario& scenario, Tracer& tracer,
                              const LayerNames& names, LayerCounts& counts) {
  const core::CarFollowingConfig& config = scenario.config;
  if (!config.defense_enabled ||
      config.controller != core::FollowerController::kAccHierarchy ||
      (config.faults && !config.faults->empty())) {
    throw std::logic_error("traced pair loop covers the workload's options only");
  }
  const units::Seconds t_sample = config.sample_time_s;
  const safe::radar::FmcwParameters& wf = config.radar.waveform;

  safe::radar::RadarProcessor radar(config.radar, config.seed);
  core::SafeMeasurementPipeline pipeline =
      core::make_default_pipeline(scenario.schedule, config.pipeline);
  safe::control::AccController acc(config.acc);
  safe::detect::DetectorBackendPtr shadow = safe::detect::make_detector(
      config.pipeline.detector_spec, config.pipeline.detector);
  FollowerStack stack{radar, pipeline, acc, *shadow};
  std::unique_ptr<safe::attack::AttackModel> attack =
      scenario.attack ? scenario.attack->clone() : nullptr;
  if (attack) attack->reset();

  safe::vehicle::VehicleState leader{.position_m = config.initial_gap_m,
                                     .velocity_mps = config.leader_speed_mps};
  safe::vehicle::VehicleState follower{
      .position_m = units::Meters{0.0},
      .velocity_mps = config.follower_speed_mps};

  TracedTrial out;
  core::CarFollowingResult& result = out.result;
  result.min_gap_m = config.initial_gap_m;
  DeferredEpoch deferred;

  for (std::int64_t k = 0; k < config.horizon_steps; ++k) {
    std::uint64_t step_id = 0;
    {
      Tracer::Scope step(tracer, names.step, 0);
      step_id = step.id();
      const units::Seconds t = static_cast<double>(k) * t_sample;
      if (!result.collided) {
        leader = safe::vehicle::step(
            leader, scenario.leader->acceleration(t), t_sample);
      }
      const units::Meters true_gap = safe::vehicle::gap(leader, follower);
      const units::MetersPerSecond true_dv =
          safe::vehicle::relative_velocity(leader, follower);

      safe::radar::EchoScene scene;
      scene.tx_enabled = !pipeline.probe_suppressed(k);
      scene.noise_power_w = config.radar.noise_floor_w;
      const bool in_window =
          true_gap >= wf.min_range_m && true_gap <= wf.max_range_m;
      double echo_power = 0.0;
      if (in_window && !result.collided) {
        echo_power = safe::radar::received_echo_power_w(wf, true_gap,
                                                        config.target_rcs_m2);
        if (scene.tx_enabled) {
          scene.echoes.push_back(safe::radar::EchoComponent{
              .distance_m = true_gap,
              .range_rate_mps = true_dv,
              .power_w = echo_power,
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
      const EpochResult e = traced_epoch(
          tracer, names, step_id, stack,
          result.collided ? nullptr : attack.get(), ctx, scene,
          follower.velocity_mps, k, deferred);
      if (e.safe.safe_stop) ++result.safe_stop_steps;
      if (e.inputs.target_present &&
          (!std::isfinite(e.inputs.distance_m.value()) ||
           !std::isfinite(e.inputs.relative_velocity_mps.value()))) {
        ++result.nonfinite_controller_inputs;
      }
      if (!result.collided) {
        follower = safe::vehicle::step(follower, e.accel, t_sample);
      }
      const units::Meters gap_after = safe::vehicle::gap(leader, follower);
      result.min_gap_m = units::min(result.min_gap_m, gap_after);
      if (!result.collided && gap_after <= units::Meters{0.0}) {
        result.collided = true;
        result.collision_step = k;
      }
      const bool receiver_output = e.measurement.nonzero_output();
      result.trace.append_row({
          t.value(),
          true_gap.value(),
          true_dv.value(),
          receiver_output ? e.measurement.estimate.distance_m.value() : 0.0,
          receiver_output ? e.measurement.estimate.range_rate_mps.value()
                          : 0.0,
          e.safe.distance_m.value(),
          e.safe.relative_velocity_mps.value(),
          leader.velocity_mps.value(),
          follower.velocity_mps.value(),
          follower.acceleration_mps2.value(),
          e.safe.challenge_slot ? 1.0 : 0.0,
          e.safe.under_attack ? 1.0 : 0.0,
          e.safe.estimated ? 1.0 : 0.0,
          result.collided ? 1.0 : 0.0,
          static_cast<double>(e.safe.degradation),
          static_cast<double>(e.safe.holdover_steps),
      });
    }
    const Tracer::Span& s = tracer.span(step_id);
    out.step_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    replay_epoch(tracer, names, deferred, stack, counts);
  }
  result.detection_step = pipeline.detection_step();
  result.detection_stats = pipeline.detection_stats();
  result.health_stats = pipeline.health_stats();
  return out;
}

/// Master seed of round `round`: every round runs fresh trials, so a run
/// averages the input-dependent cost (root-finding iterations vary with the
/// noise) over every round instead of repeating one draw.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return runtime::derive_seed(seed, runtime::SeedStream::kParams, round);
}

Report run_pair_untraced(const RunOptions& options, std::size_t jobs) {
  Report report;
  report.attempted_base = "trials";
  PairSetup setup;
  // Set-up cost depends on the noise draw (the warm-up epochs run
  // root-MUSIC), so each set-up prepares a different round, ending with
  // round 0, the first one timed.
  const Normalized setup_time = timed_setup(kSetupRepeats, [&](int i) {
    const auto round = static_cast<std::uint64_t>(kSetupRepeats - 1 - i);
    setup = prepare_pair(round_seed(options.seed, round), kTrialsPerRound,
                         /*time_epochs=*/true);
  });

  std::vector<Repetition> reps;
  std::vector<double> round_p99s;
  std::size_t round_samples = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::string first_round_jsonl;
  std::size_t detected = 0;
  std::size_t attacked_trials = 0;
  std::vector<std::int64_t> detection_steps;
  std::uint64_t rounds = 0;
  while (rounds < kMinRounds || wall_s < options.seconds) {
    if (rounds > 0) {
      setup = prepare_pair(round_seed(options.seed, rounds), kTrialsPerRound,
                           /*time_epochs=*/true);
    }
    CollectingSink sink;
    const double calibration_before_s = host_calibration_s(jobs);
    const runtime::CampaignResult result = setup.campaign->run(jobs, {&sink});
    const double calibration_s =
        0.5 * (calibration_before_s + host_calibration_s(jobs));
    wall_s += result.wall_s.value();
    ++rounds;
    std::vector<double> epoch_us;
    for (const auto& stamps : *setup.stamps) append_gaps_us(stamps, epoch_us);
    const Summary latency = summarize(std::move(epoch_us));
    reps.push_back(Repetition{
        .rate = static_cast<double>(result.trials) / result.wall_s.value(),
        .latency_p50_us = latency.p50,
        .calibration_s = calibration_s,
    });
    round_p99s.push_back(latency.p99);
    round_samples = latency.n;

    report.attempted += kTrialsPerRound;
    report.failed += check_records(sink.records(), kTrialsPerRound, report);
    report.check(result.summary.errors == 0, "campaign summary counts errors");
    // The digest covers round 0 only: the number of rounds depends on host
    // speed, round 0's trials depend only on the seed and the code.
    if (rounds == 1) digest = jsonl_digest(sink.records());
    for (const runtime::TrialRecord& r : sink.records()) {
      if (rounds == 1 && r.trial_id < kAttackCells) {
        first_round_jsonl += runtime::to_jsonl(r);
      }
      if (!attacked(r)) continue;
      ++attacked_trials;
      if (r.detection_step >= 0) ++detected;
      if (std::find(detection_steps.begin(), detection_steps.end(),
                    r.detection_step) == detection_steps.end()) {
        detection_steps.push_back(r.detection_step);
      }
    }
  }

  // Determinism: the first trial of every attack cell of round 0, run
  // again after the timed rounds, must reproduce its JSONL line exactly.
  CollectingSink again;
  runtime::CampaignSpec spec = pair_spec(round_seed(options.seed, 0),
                                         kAttackCells);
  runtime::Campaign(std::move(spec)).run(jobs, {&again});
  std::string repeat_jsonl;
  for (const runtime::TrialRecord& r : again.records()) {
    repeat_jsonl += runtime::to_jsonl(r);
  }
  report.check(repeat_jsonl == first_round_jsonl,
               "trial JSONL changed when the same trials ran again");

  // The tail is the median of per-round p99s, each over one round's epochs.
  Summary tail;
  tail.n = round_samples;
  tail.p99 = median(round_p99s);
  tail.tail_q = highest_supported_percentile(round_samples);
  report_repetitions(report, setup_time, reps,
                     tail);
  report.fact("throughput",
              "trials_per_s = completed trials / wall s, median of rounds");
  report.fact("latency",
              "one epoch of one trial (leader call to leader call), median "
              "of rounds; p99 is the median of per-round p99s");
  std::string rates;
  for (const Repetition& r : reps) {
    rates += std::to_string(r.rate) + "@" + std::to_string(r.calibration_s) +
             "s ";
  }
  report.fact("round_trials_per_s_at_calibration", rates);
  report.fact("jobs", std::to_string(jobs));
  report.fact("jsonl_digest_round0", hex64(digest));
  report.fact("detected", std::to_string(detected) + "/" +
                              std::to_string(attacked_trials));
  std::string steps;
  for (const std::int64_t k : detection_steps) {
    steps += std::to_string(k) + " ";
  }
  report.fact("detection_steps_seen", steps);
  return report;
}

Report run_pair_traced(const RunOptions& options, std::size_t jobs) {
  Report report;
  report.attempted_base = "trials";
  const PairSetup setup = prepare_pair(round_seed(options.seed, 0),
                                      kTracedTrials, /*time_epochs=*/false);

  // Untraced parallel campaign over the traced trials: the denominator of
  // runtime.parallel_efficiency, and the sink cost.
  CollectingSink collect;
  TimedSink timed(collect);
  const runtime::CampaignResult parallel = setup.campaign->run(jobs, {&timed});
  report.failed += check_records(collect.records(), kTracedTrials, report);
  report.attempted += kTracedTrials;

  Tracer tracer;
  const LayerNames names(tracer);
  LayerCounts counts;
  std::vector<double> trial_s;
  double traced_step_s = 0.0;
  double reference_s = 0.0;
  std::size_t identical = 0;
  for (std::size_t t = 0; t < kTracedTrials; ++t) {
    tracer.set_request(t + 1);
    runtime::TrialRecord record;
    const core::Scenario scenario =
        core::make_paper_scenario(setup.campaign->expand(t, record));
    const TracedTrial traced =
        traced_pair_trial(scenario, tracer, names, counts);
    trial_s.push_back(traced.step_s);
    traced_step_s += traced.step_s;

    const std::int64_t t0 = now_ns();
    const core::CarFollowingResult reference = scenario.run();
    reference_s += static_cast<double>(now_ns() - t0) * 1e-9;
    const bool same =
        traces_identical(traced.result.trace, reference.trace) &&
        traced.result.detection_step == reference.detection_step &&
        traced.result.collided == reference.collided &&
        traced.result.nonfinite_controller_inputs ==
            reference.nonfinite_controller_inputs;
    if (same) ++identical;
    report.check(same, "traced pair loop diverged from "
                       "CarFollowingSimulation::run() on trial " +
                           std::to_string(t));
  }
  report.check(counts.replay_mismatches == 0,
               std::to_string(counts.replay_mismatches) +
                   " radar replays differ from measure()");
  report.check(counts.shadow_mismatches == 0,
               std::to_string(counts.shadow_mismatches) +
                   " shadow detector verdicts differ from the pipeline");

  const LayerFigures figures = layer_figures(tracer, names, counts);
  report_layer_figures(figures, report);
  const Summary trials = summarize(trial_s);
  report.metric("runtime.trial_p50_s", trials.p50, "s");
  report.metric("runtime.trial_p99_s", trials.p99, "s");
  report.metric("runtime.parallel_efficiency",
                trials.total / (static_cast<double>(parallel.jobs) *
                                parallel.wall_s.value()),
                "ratio");
  report.metric("runtime.sink_us_total", timed.total_us(), "us");
  report_idle_serve(report);
  report.metric("trace.overhead", traced_step_s / reference_s - 1.0, "ratio");
  report.fact("fidelity", std::to_string(identical) + "/" +
                              std::to_string(kTracedTrials) +
                              " traced trials bit-identical to run()");
  report.fact("traced_trials", std::to_string(kTracedTrials));
  report.fact("jsonl_digest", hex64(jsonl_digest(collect.records())));
  report.fact("replay_sink", std::to_string(counts.sink));
  write_spans(tracer, options);
  return report;
}

}  // namespace

Report run_pair(const RunOptions& options) {
  const std::size_t jobs = std::min<std::size_t>(options.nproc, 4);
  return options.trace ? run_pair_traced(options, jobs)
                       : run_pair_untraced(options, jobs);
}

}  // namespace perfbench
