#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "detect/backend.hpp"
#include "dsp/covariance.hpp"
#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "radar/fmcw.hpp"

namespace perfbench {

namespace radar = safe::radar;
namespace dsp = safe::dsp;
using Scope = Tracer::Scope;

LayerNames::LayerNames(Tracer& tracer)
    : step(tracer.name("step")),
      attack_apply(tracer.name("attack.apply")),
      radar_measure(tracer.name("radar.measure")),
      pipeline(tracer.name("core.pipeline")),
      acc_step(tracer.name("control.acc_step")),
      radar_synthesize(tracer.name("radar.synthesize")),
      coherence_fft(tracer.name("dsp.coherence_fft")),
      periodogram(tracer.name("dsp.periodogram")),
      covariance(tracer.name("dsp.covariance")),
      eigensolve(tracer.name("linalg.eigensolve")),
      root_music(tracer.name("dsp.root_music")),
      tone_power(tracer.name("dsp.tone_power")),
      observe(tracer.name("detect.observe")) {}

EpochResult traced_epoch(Tracer& tracer, const LayerNames& names,
                         std::uint64_t step_span, FollowerStack& stack,
                         safe::attack::AttackModel* attack,
                         const safe::attack::AttackContext& context,
                         radar::EchoScene& scene,
                         safe::units::MetersPerSecond follower_speed,
                         std::int64_t k, DeferredEpoch& deferred) {
  EpochResult r;
  if (attack != nullptr) {
    Scope span(tracer, names.attack_apply, step_span);
    r.attack_active = attack->apply(context, scene);
  }

  deferred.radar_before = stack.radar;
  deferred.scene = scene;
  {
    Scope span(tracer, names.radar_measure, step_span);
    deferred.measure_span = span.id();
    r.measurement = stack.radar.measure(scene);
  }
  {
    Scope span(tracer, names.pipeline, step_span);
    deferred.pipeline_span = span.id();
    r.safe = stack.pipeline.process_scored(k, r.measurement, r.attack_active);
  }
  deferred.measured = r.measurement;
  deferred.attack_active = r.attack_active;
  deferred.under_attack = r.safe.under_attack;
  deferred.estimated = r.safe.estimated;
  deferred.observation = safe::detect::Observation{
      .step = k,
      .challenge_slot = stack.pipeline.probe_suppressed(k),
      .receiver_nonzero = r.measurement.nonzero_output(),
      .coherent_echo = r.measurement.coherent_echo,
      .distance = r.measurement.estimate.distance_m,
      .relative_velocity = r.measurement.estimate.range_rate_mps,
  };

  r.inputs.follower_speed_mps = follower_speed;
  r.inputs.target_present = r.safe.target_present;
  r.inputs.distance_m = r.safe.distance_m;
  r.inputs.relative_velocity_mps = r.safe.relative_velocity_mps;
  r.inputs.degraded_safe_stop = r.safe.safe_stop;
  r.inputs.degraded_holdover =
      r.safe.degradation == safe::core::DegradationState::kHoldover;
  {
    Scope span(tracer, names.acc_step, step_span);
    r.accel = stack.acc.step(r.inputs).actuation.actual_accel_mps2;
  }
  return r;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_measurement(const radar::RadarMeasurement& a,
                      const radar::RadarMeasurement& b) {
  return same_bits(a.estimate.distance_m.value(),
                   b.estimate.distance_m.value()) &&
         same_bits(a.estimate.range_rate_mps.value(),
                   b.estimate.range_rate_mps.value()) &&
         same_bits(a.beats.up_hz.value(), b.beats.up_hz.value()) &&
         same_bits(a.beats.down_hz.value(), b.beats.down_hz.value()) &&
         same_bits(a.rx_power_w, b.rx_power_w) &&
         same_bits(a.peak_to_average, b.peak_to_average) &&
         a.coherent_echo == b.coherent_echo &&
         a.power_alarm == b.power_alarm;
}

double us_between(const Tracer& tracer, std::uint64_t id) {
  const Tracer::Span& s = tracer.span(id);
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
}

/// RadarProcessor::estimate_beat_hz, one public call per span.
double replay_beat_hz(Tracer& tracer, const LayerNames& names,
                      std::uint64_t parent,
                      const radar::RadarProcessorConfig& config,
                      const dsp::ComplexSignal& segment,
                      std::size_t components, LayerCounts& counts) {
  const double fs = config.sample_rate_hz.value();
  if (config.estimator == radar::BeatEstimator::kPeriodogram) {
    Scope span(tracer, names.periodogram, parent);
    const auto tone = dsp::estimate_dominant_tone(segment, fs);
    return tone ? tone->frequency_hz : 0.0;
  }

  std::uint64_t cov_id = 0;
  std::uint64_t eig_id = 0;
  std::uint64_t music_id = 0;
  {
    std::optional<safe::linalg::CMatrix> r;
    {
      Scope span(tracer, names.covariance, parent);
      cov_id = span.id();
      r = dsp::forward_backward_covariance(segment, config.music_order);
    }
    Scope span(tracer, names.eigensolve, parent);
    eig_id = span.id();
    const auto eig = safe::linalg::eigen_hermitian(*r);
    counts.sink += eig.eigenvalues[0];
  }
  std::vector<double> candidates;
  {
    Scope span(tracer, names.root_music, parent);
    music_id = span.id();
    const dsp::MusicOptions options{.covariance_order = config.music_order,
                                    .forward_backward = true};
    candidates = dsp::root_music_frequencies(
        segment, fs, std::max<std::size_t>(components, 1), options);
  }
  counts.rooting_us.push_back(us_between(tracer, music_id) -
                              us_between(tracer, cov_id) -
                              us_between(tracer, eig_id));
  if (candidates.empty()) return 0.0;
  double best_freq = candidates.front();
  double best_power = -1.0;
  for (const double f : candidates) {
    double p = 0.0;
    {
      Scope span(tracer, names.tone_power, parent);
      p = dsp::tone_power(segment, f, fs);
    }
    if (p > best_power) {
      best_power = p;
      best_freq = f;
    }
  }
  return best_freq;
}

}  // namespace

void replay_epoch(Tracer& tracer, const LayerNames& names,
                  DeferredEpoch& deferred, FollowerStack& stack,
                  LayerCounts& counts) {
  radar::RadarProcessor& copy = *deferred.radar_before;
  const radar::RadarProcessorConfig& config = copy.config();
  const std::uint64_t parent = deferred.measure_span;

  radar::RadarProcessor::Segments seg;
  {
    Scope span(tracer, names.radar_synthesize, parent);
    seg = copy.synthesize(deferred.scene);
  }
  radar::RadarMeasurement m;
  m.rx_power_w = 0.5 * (dsp::mean_power(seg.up) + dsp::mean_power(seg.down));
  {
    Scope span(tracer, names.coherence_fft, parent);
    m.peak_to_average = dsp::peak_to_average_power(seg.up);
  }
  m.coherent_echo = m.peak_to_average > config.coherence_threshold;
  m.power_alarm =
      m.rx_power_w > config.power_alarm_factor * config.noise_floor_w;
  const std::size_t components =
      std::max<std::size_t>(deferred.scene.echoes.size(), 1);
  m.beats.up_hz = safe::units::Hertz{
      replay_beat_hz(tracer, names, parent, config, seg.up, components, counts)};
  m.beats.down_hz = safe::units::Hertz{replay_beat_hz(
      tracer, names, parent, config, seg.down, components, counts)};
  m.estimate = radar::range_rate_from_beats(config.waveform, m.beats);
  if (!same_measurement(m, deferred.measured)) ++counts.replay_mismatches;

  safe::detect::Verdict verdict;
  {
    Scope span(tracer, names.observe, deferred.pipeline_span);
    verdict = stack.shadow.observe_scored(deferred.observation,
                                          deferred.attack_active);
  }
  if (verdict.under_attack != deferred.under_attack) {
    ++counts.shadow_mismatches;
  }

  ++counts.epochs;
  if (deferred.estimated) ++counts.estimated;
  counts.echoes += deferred.scene.echoes.size();
  if (deferred.measured.coherent_echo) ++counts.coherent;
}

bool traces_identical(const safe::sim::Trace& a, const safe::sim::Trace& b) {
  if (a.column_names() != b.column_names() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (std::size_t c = 0; c < a.num_columns(); ++c) {
    const std::vector<double>& x = a.column(c);
    const std::vector<double>& y = b.column(c);
    if (x.size() != y.size() ||
        (!x.empty() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

LayerFigures layer_figures(const Tracer& tracer, const LayerNames& names,
                           const LayerCounts& counts) {
  LayerFigures f;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  // Time of each step's direct layer children; the rest is step.other.
  std::vector<double> child_us(spans.size() + 1, 0.0);
  double measure_total = 0.0;
  double step_total = 0.0;
  for (const Tracer::Span& s : spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    const std::uint32_t n = s.name;
    if (n == names.attack_apply || n == names.radar_measure ||
        n == names.pipeline || n == names.acc_step) {
      child_us[s.parent] += us;
    }
    if (n == names.step) {
      f.step_us.push_back(us);
      step_total += us;
    } else if (n == names.radar_measure) {
      f.measure_us.push_back(us);
      measure_total += us;
    } else if (n == names.attack_apply) {
      f.attack_us.push_back(us);
    } else if (n == names.pipeline) {
      f.pipeline_us.push_back(us);
    } else if (n == names.acc_step) {
      f.acc_us.push_back(us);
    } else if (n == names.radar_synthesize) {
      f.synthesize_us.push_back(us);
    } else if (n == names.coherence_fft) {
      f.coherence_us.push_back(us);
    } else if (n == names.periodogram) {
      f.periodogram_us.push_back(us);
    } else if (n == names.covariance) {
      f.covariance_us.push_back(us);
    } else if (n == names.eigensolve) {
      f.eigensolve_us.push_back(us);
    } else if (n == names.root_music) {
      f.root_music_us.push_back(us);
    } else if (n == names.tone_power) {
      f.tone_power_us.push_back(us);
    } else if (n == names.observe) {
      f.observe_us.push_back(us);
    }
  }
  for (const Tracer::Span& s : spans) {
    if (s.name == names.step) {
      f.other_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3 -
                           child_us[s.id]);
    }
  }
  f.rooting_us = counts.rooting_us;
  f.radar_share = step_total > 0.0 ? measure_total / step_total : 0.0;
  if (counts.epochs > 0) {
    const auto n = static_cast<double>(counts.epochs);
    f.echoes_per_measure = static_cast<double>(counts.echoes) / n;
    f.coherent_ratio = static_cast<double>(counts.coherent) / n;
    f.holdover_ratio = static_cast<double>(counts.estimated) / n;
  }
  return f;
}

void report_layer_figures(const LayerFigures& f, Report& report) {
  report.distribution("radar.measure", summarize(f.measure_us), "us");
  report.metric("radar.measure_calls", static_cast<double>(f.measure_us.size()),
                "count");
  report.metric("radar.share", f.radar_share, "ratio");
  report.metric("radar.echoes_per_measure", f.echoes_per_measure, "count");
  report.metric("radar.coherent_ratio", f.coherent_ratio, "ratio");
  report.distribution("radar.synthesize", summarize(f.synthesize_us), "us");
  report.distribution("dsp.coherence_fft", summarize(f.coherence_us), "us");
  report.distribution("dsp.periodogram", summarize(f.periodogram_us), "us");
  report.metric("dsp.periodogram_calls",
                static_cast<double>(f.periodogram_us.size()), "count");
  report.distribution("dsp.covariance", summarize(f.covariance_us), "us");
  report.distribution("linalg.eigensolve", summarize(f.eigensolve_us), "us");
  report.distribution("dsp.root_music", summarize(f.root_music_us), "us");
  report.metric("dsp.root_music_calls",
                static_cast<double>(f.root_music_us.size()), "count");
  report.distribution("dsp.rooting", summarize(f.rooting_us), "us");
  report.distribution("dsp.tone_power", summarize(f.tone_power_us), "us");
  report.distribution("attack.apply", summarize(f.attack_us), "us");
  report.distribution("core.pipeline", summarize(f.pipeline_us), "us");
  report.distribution("detect.observe", summarize(f.observe_us), "us");
  report.metric("core.holdover_ratio", f.holdover_ratio, "ratio");
  report.distribution("control.acc_step", summarize(f.acc_us), "us");
  report.distribution("step", summarize(f.step_us), "us");
  report.distribution("step.other", summarize(f.other_us), "us");
}

}  // namespace perfbench
