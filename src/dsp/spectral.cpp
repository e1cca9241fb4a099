#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "runtime/sync.hpp"

namespace safe::dsp {

namespace {

/// Maps an FFT bin index to its signed frequency in Hz.
double bin_to_hz(double bin, std::size_t fft_size, double sample_rate_hz) {
  const double n = static_cast<double>(fft_size);
  double f = bin / n;
  if (f > 0.5) f -= 1.0;
  return f * sample_rate_hz;
}

/// make_window(kind, length), computed once per process per (kind, length)
/// and shared by every thread. std::map never moves a node, so the returned
/// reference outlives the lock; entries are never erased and the map is
/// never freed, so it stays valid until exit.
const RealSignal& cached_window(WindowKind kind, std::size_t length) {
  static runtime::Mutex mutex;
  static auto* const windows =
      new std::map<std::pair<WindowKind, std::size_t>, RealSignal>();
  runtime::MutexLock guard(mutex);
  auto [it, inserted] = windows->try_emplace({kind, length});
  if (inserted) it->second = make_window(kind, length);
  return it->second;
}

}  // namespace

Periodogram periodogram(const ComplexSignal& signal,
                        const PeriodogramOptions& options) {
  const RealSignal& window = cached_window(options.window, signal.size());
  ComplexSignal windowed(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    windowed[i] = signal[i] * window[i];
  }
  return Periodogram{
      .power = power_spectrum(fft(windowed, options.min_fft_size)),
      .signal_length = signal.size()};
}

std::vector<ToneEstimate> pick_tones(const Periodogram& spectrum,
                                     double sample_rate_hz, std::size_t count,
                                     bool parabolic_interpolation) {
  const RealSignal& power = spectrum.power;
  const std::size_t n = power.size();
  if (spectrum.signal_length == 0 || count == 0) return {};

  // Guard band: the padding factor blows one pre-padding bin up to
  // pad_factor bins, so suppress +-2*pad_factor around each accepted peak.
  const std::size_t pad_factor =
      std::max<std::size_t>(1, n / spectrum.signal_length);
  const std::size_t guard = 2 * pad_factor;

  std::vector<char> masked(n, 0);
  std::vector<ToneEstimate> tones;
  tones.reserve(count);

  for (std::size_t pick = 0; pick < count; ++pick) {
    std::size_t best = n;  // sentinel
    double best_power = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (power[i] > best_power && masked[i] == 0) {
        best_power = power[i];
        best = i;
      }
    }
    if (best == n || best_power <= 0.0) break;

    double bin = static_cast<double>(best);
    if (parabolic_interpolation) {
      const std::size_t prev = (best + n - 1) % n;
      const std::size_t next = (best + 1) % n;
      // Log-magnitude parabola through the three bins around the peak.
      const double a = 0.5 * std::log(std::max(power[prev], 1e-300));
      const double b = 0.5 * std::log(std::max(power[best], 1e-300));
      const double c = 0.5 * std::log(std::max(power[next], 1e-300));
      const double denom = a - 2.0 * b + c;
      if (std::abs(denom) > 1e-30) {
        const double delta = 0.5 * (a - c) / denom;
        if (std::abs(delta) <= 1.0) bin += delta;
      }
    }

    tones.push_back(ToneEstimate{
        .frequency_hz = bin_to_hz(bin, n, sample_rate_hz),
        .power = best_power,
    });

    for (std::size_t off = 0; off <= guard; ++off) {
      masked[(best + off) % n] = 1;
      masked[(best + n - off) % n] = 1;
    }
  }
  return tones;
}

double peak_to_average(const Periodogram& spectrum) {
  double peak = 0.0, sum = 0.0;
  for (const double p : spectrum.power) {
    peak = std::max(peak, p);
    sum += p;
  }
  if (sum <= 0.0) return 0.0;
  return peak / (sum / static_cast<double>(spectrum.power.size()));
}

std::vector<ToneEstimate> estimate_tones_periodogram(
    const ComplexSignal& signal, double sample_rate_hz, std::size_t count,
    const PeriodogramOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("estimate_tones: sample rate must be > 0");
  }
  if (signal.empty() || count == 0) return {};
  return pick_tones(periodogram(signal, options), sample_rate_hz, count,
                    options.parabolic_interpolation);
}

std::optional<ToneEstimate> estimate_dominant_tone(
    const ComplexSignal& signal, double sample_rate_hz,
    const PeriodogramOptions& options) {
  auto tones = estimate_tones_periodogram(signal, sample_rate_hz, 1, options);
  if (tones.empty()) return std::nullopt;
  return tones.front();
}

double tone_power(const ComplexSignal& signal, double frequency_hz,
                  double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("tone_power: sample rate must be > 0");
  }
  if (signal.empty()) return 0.0;
  const double omega =
      2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
  Complex acc{};
  for (std::size_t n = 0; n < signal.size(); ++n) {
    acc += signal[n] * std::polar(1.0, -omega * static_cast<double>(n));
  }
  acc /= static_cast<double>(signal.size());
  return std::norm(acc);
}

double mean_power(const ComplexSignal& signal) {
  if (signal.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& xi : signal) acc += std::norm(xi);
  return acc / static_cast<double>(signal.size());
}

double peak_to_average_power(const ComplexSignal& signal,
                             const PeriodogramOptions& options) {
  if (signal.empty()) return 0.0;
  return peak_to_average(periodogram(signal, options));
}

}  // namespace safe::dsp
