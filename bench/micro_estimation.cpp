// Microbenchmarks (google-benchmark) for the estimation and DSP kernels:
// per-update cost of RLS / LMS / Kalman, the paper's 118-step RLS holdover,
// the per-epoch cost of root-MUSIC vs periodogram beat extraction, the
// root-MUSIC stages (covariance, Durand-Kerner rooting) on their own, and one
// whole periodogram radar epoch next to its baseband synthesis.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "dsp/covariance.hpp"
#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "estimation/baselines.hpp"
#include "estimation/rls.hpp"
#include "estimation/rls_predictor.hpp"
#include "linalg/polynomial.hpp"
#include "radar/link_budget.hpp"
#include "radar/processor.hpp"

namespace {

using namespace safe;

void BM_RlsUpdate(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  estimation::RlsFilter filter(dim);
  linalg::RVector h(dim, 1.0);
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < dim; ++i) h[i] = dist(rng);
    benchmark::DoNotOptimize(filter.update(h, dist(rng)));
  }
}
BENCHMARK(BM_RlsUpdate)->Arg(4)->Arg(8)->Arg(16);

void BM_LmsObserve(benchmark::State& state) {
  estimation::LmsArPredictor lms(4);
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto _ : state) {
    lms.observe(dist(rng));
  }
}
BENCHMARK(BM_LmsObserve);

void BM_KalmanCvObserve(benchmark::State& state) {
  estimation::KalmanCvPredictor kf;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double y = 0.0;
  for (auto _ : state) {
    y += dist(rng);
    kf.observe(y);
  }
}
BENCHMARK(BM_KalmanCvObserve);

// The paper's Results-paragraph workload: free-run the trained RLS pair
// across the 118-step attack window (k = 182..300). Paper reports ~1.2e7 ns
// in MATLAB.
void BM_RlsHoldover118(benchmark::State& state) {
  estimation::RlsArPredictor trained_d, trained_v;
  for (int k = 0; k < 182; ++k) {
    trained_d.observe(100.0 - 0.3 * k);
    trained_v.observe(-0.3 + 0.001 * k);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto d = trained_d.clone();
    auto v = trained_v.clone();
    state.ResumeTiming();
    for (int k = 0; k < 118; ++k) {
      benchmark::DoNotOptimize(d->predict_next());
      benchmark::DoNotOptimize(v->predict_next());
    }
  }
}
BENCHMARK(BM_RlsHoldover118);

dsp::ComplexSignal bench_tone(std::size_t n, double noise = 0.1) {
  std::mt19937 rng(4);
  std::normal_distribution<double> awgn(0.0, noise);
  dsp::ComplexSignal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(1.0, 2.0 * 3.14159265358979 * 0.047 *
                               static_cast<double>(i)) +
           dsp::Complex{awgn(rng), awgn(rng)};
  }
  return x;
}

void BM_RootMusic512(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::root_music_frequencies(x, 1.0e6, 1));
  }
}
BENCHMARK(BM_RootMusic512);

// At high SNR the signal roots of the root-MUSIC polynomial meet on the unit
// circle as a double root, where Durand-Kerner converges only linearly and
// stalls just above its tolerance; BM_RootMusic512 (noise 0.1) never does.
void BM_RootMusic512HighSnr(benchmark::State& state) {
  const auto x = bench_tone(512, 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::root_music_frequencies(x, 1.0e6, 1));
  }
}
BENCHMARK(BM_RootMusic512HighSnr);

// Degree 30, the root-MUSIC degree at covariance order 16: two double roots
// on the unit circle among 26 simple roots inside it, a stalling case.
void BM_FindRootsStalled(benchmark::State& state) {
  std::vector<linalg::Complex> roots;
  for (const double angle : {0.7, -2.1}) {
    roots.push_back(std::polar(1.0, angle));
    roots.push_back(std::polar(1.0, angle));
  }
  for (std::size_t k = 0; roots.size() < 30; ++k) {
    const double angle = 0.45 * static_cast<double>(k) + 0.2;
    const double r = 0.3 + 0.01 * static_cast<double>(k);
    roots.push_back(std::polar(r, angle));
    roots.push_back(std::polar(0.9 * r, angle + 0.2));
  }
  const auto p = linalg::Polynomial::from_roots(roots);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::find_roots(p));
  }
}
BENCHMARK(BM_FindRootsStalled);

// The radar's covariance shape: 512 samples, order 16.
void BM_Covariance512x16(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::sample_covariance(x, 16));
  }
}
BENCHMARK(BM_Covariance512x16);

void BM_Periodogram512(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::estimate_dominant_tone(x, 1.0e6));
  }
}
BENCHMARK(BM_Periodogram512);

void BM_Fft4096(benchmark::State& state) {
  const auto x = bench_tone(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::fft(x));
  }
}
BENCHMARK(BM_Fft4096);

// The radar's shape: a 512-sample sweep zero-padded to a 4096-point FFT.
void BM_Fft512Pad4096(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::fft(x, 4096));
  }
}
BENCHMARK(BM_Fft512Pad4096);

// A periodogram receiver and the two-echo scene (a target at 60 m and a
// weaker one 6 m behind it) that platoon cut-ins and spoofers present.
radar::RadarProcessorConfig periodogram_radar() {
  radar::RadarProcessorConfig cfg;
  cfg.estimator = radar::BeatEstimator::kPeriodogram;
  cfg.noise_floor_w = radar::thermal_noise_power_w(cfg.waveform);
  return cfg;
}

radar::EchoScene two_echo_scene(const radar::RadarProcessorConfig& cfg) {
  radar::EchoScene scene;
  for (const double distance : {60.0, 66.0}) {
    scene.echoes.push_back(radar::EchoComponent{
        .distance_m = units::Meters{distance},
        .range_rate_mps = units::MetersPerSecond{-2.0},
        .power_w = radar::received_echo_power_w(
            cfg.waveform, units::Meters{distance}, 10.0),
    });
  }
  scene.noise_power_w = cfg.noise_floor_w;
  return scene;
}

// One receiver epoch: synthesis plus the up spectrum (coherence statistic
// and up beat) and the down spectrum.
void BM_RadarMeasurePeriodogram(benchmark::State& state) {
  const auto cfg = periodogram_radar();
  const auto scene = two_echo_scene(cfg);
  radar::RadarProcessor processor(cfg, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.measure(scene));
  }
}
BENCHMARK(BM_RadarMeasurePeriodogram);

void BM_RadarSynthesize(benchmark::State& state) {
  const auto cfg = periodogram_radar();
  const auto scene = two_echo_scene(cfg);
  radar::RadarProcessor processor(cfg, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.synthesize(scene));
  }
}
BENCHMARK(BM_RadarSynthesize);

}  // namespace

BENCHMARK_MAIN();
