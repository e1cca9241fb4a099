#include <cmath>
#include <algorithm>
#include <complex>
#include <numbers>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

using Complex = std::complex<double>;

/// In-place iterative radix-2 FFT (textbook Cooley-Tukey).
void fft4096(std::vector<Complex>& x) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1U;
    for (; (j & bit) != 0; bit >>= 1U) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1U) {
    const Complex step =
        std::polar(1.0, -2.0 * std::numbers::pi / static_cast<double>(len));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= step;
      }
    }
  }
}

/// Newton steps on a degree-32 complex polynomial (Horner, complex divide).
Complex newton_sweep(const std::vector<Complex>& coeffs, Complex z) {
  for (int it = 0; it < 8; ++it) {
    Complex p = coeffs.back();
    Complex dp{};
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
      dp = dp * z + p;
      p = p * z + coeffs[i];
    }
    z -= p / dp;
  }
  return z;
}

/// The calibration kernel: zero-padded FFTs, tone synthesis with
/// std::polar and polynomial root polishing, the same kinds of complex
/// arithmetic the workloads spend their time in (FFT, synthesis,
/// covariance/eigensolve, rooting), on the same cache-resident sizes. It
/// is owned by the benchmark, so no change to the program can move it.
double calibration_kernel_s() {
  constexpr std::size_t kN = 4096;
  constexpr int kRepeats = 320;
  std::vector<Complex> x(kN);
  std::vector<Complex> coeffs(33);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    const auto t = static_cast<double>(i);
    coeffs[i] = {std::cos(0.7 * t) + 0.1, std::sin(1.3 * t)};
  }
  double keep = 0.0;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < 512; ++i) {
      const auto t = static_cast<double>(i);
      x[i] = std::polar(1.0, 0.37 * t + 0.01 * r) +
             std::polar(0.5, 1.91 * t);
    }
    std::fill(x.begin() + 512, x.end(), Complex{});
    for (int f = 0; f < 3; ++f) fft4096(x);
    for (int k = 0; k < 64; ++k) {
      keep += std::abs(newton_sweep(
          coeffs, std::polar(0.9, 0.1 * k + 0.001 * r)));
    }
    keep += std::abs(x[17]);
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  asm volatile("" : : "g"(keep) : "memory");  // keep the result observable
  return elapsed;
}

}  // namespace

double host_calibration_s(std::size_t threads) {
  if (threads <= 1) return calibration_kernel_s();
  std::vector<double> times(threads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&times, i] { times[i] = calibration_kernel_s(); });
  }
  for (std::thread& w : workers) w.join();
  return median(times);
}

void report_repetitions(Report& report, const Normalized& setup,
                        const std::vector<Repetition>& reps,
                        const Summary& tail_sample) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> raw_rates;
  std::vector<double> raw_p50s;
  std::vector<double> calibrations;
  for (const Repetition& r : reps) {
    const double speed = r.calibration_s / r.reference_s;
    rates.push_back(r.scale_rate ? r.rate * speed : r.rate);
    p50s.push_back(r.latency_p50_us / speed);
    raw_rates.push_back(r.rate);
    raw_p50s.push_back(r.latency_p50_us);
    calibrations.push_back(r.calibration_s);
  }
  report.metric("setup_s",
                setup.value * kCalibrationReferenceS / setup.calibration_s,
                "s");
  report.metric("throughput_per_s", median(rates), "1/s");
  report.metric("latency_p50_us", median(p50s), "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  report.fact("calibration_s_median", std::to_string(median(calibrations)));
  report.fact("raw_setup_s", std::to_string(setup.value));
  report.fact("raw_throughput_per_s", std::to_string(median(raw_rates)));
  report.fact("raw_latency_p50_us", std::to_string(median(raw_p50s)));
  report.fact("repetitions", std::to_string(reps.size()));
  // The tail is printed with its sample count but is not a bounded metric:
  // on a shared host its run-to-run spread exceeds any allowed bound.
  report.fact("raw_latency_p99_us", std::to_string(tail_sample.p99));
  report.fact("latency_samples", std::to_string(tail_sample.n));
  report.fact("latency_highest_supported_percentile",
              std::to_string(tail_sample.tail_q));
  report.check(samples_beyond(tail_sample.n, 99.0) >= 10,
               "p99 latency needs at least 10 samples beyond it (have " +
                   std::to_string(tail_sample.n) + " samples)");
}

}  // namespace perfbench
