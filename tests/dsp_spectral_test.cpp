// Tests that the periodogram statistics read from one shared spectrum are
// bit-identical to the one-call estimators and to the textbook composition
// window -> zero-padded FFT -> |X|^2 they replace.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "dsp/fft.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"

namespace safe::dsp {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A three-tone signal in complex Gaussian noise; `zero` gives all zeros.
ComplexSignal test_signal(std::size_t n, unsigned seed, bool zero) {
  ComplexSignal x(n);
  if (zero) return x;
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::polar(1.0, 0.31 * t) + std::polar(0.6, -1.7 * t + 0.4) +
           std::polar(0.3, 2.6 * t + 1.1) + Complex{noise(rng), noise(rng)};
  }
  return x;
}

struct Case {
  WindowKind window;
  std::size_t length;
  bool zero;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const WindowKind window :
       {WindowKind::kRectangular, WindowKind::kHann, WindowKind::kHamming,
        WindowKind::kBlackman}) {
    for (const std::size_t length :
         {std::size_t{1}, std::size_t{300}, std::size_t{512}}) {
      for (const bool zero : {false, true}) {
        out.push_back(Case{window, length, zero});
      }
    }
  }
  return out;
}

TEST(SharedPeriodogram, SpectrumIsBitIdenticalToTextbookComposition) {
  for (const Case& c : cases()) {
    const PeriodogramOptions options{.window = c.window};
    const ComplexSignal x = test_signal(c.length, 5, c.zero);
    ComplexSignal windowed = x;
    apply_window(windowed, make_window(c.window, c.length));
    const RealSignal expected =
        power_spectrum(fft(windowed, options.min_fft_size));

    const Periodogram spectrum = periodogram(x, options);
    EXPECT_EQ(spectrum.signal_length, c.length);
    ASSERT_EQ(spectrum.power.size(), expected.size());
    std::size_t differing = 0;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      if (!same_bits(spectrum.power[k], expected[k])) ++differing;
    }
    EXPECT_EQ(differing, 0U) << "window " << static_cast<int>(c.window)
                             << ", length " << c.length << ", zero " << c.zero;
  }
}

TEST(SharedPeriodogram, ReadersOfOneSpectrumMatchTheOneCallEstimators) {
  const double fs = 1.0e6;
  for (const Case& c : cases()) {
    const PeriodogramOptions options{.window = c.window};
    const ComplexSignal x = test_signal(c.length, 9, c.zero);
    const Periodogram spectrum = periodogram(x, options);
    const std::string where = "window " +
                              std::to_string(static_cast<int>(c.window)) +
                              ", length " + std::to_string(c.length) +
                              ", zero " + std::to_string(c.zero);

    EXPECT_TRUE(same_bits(peak_to_average(spectrum),
                          peak_to_average_power(x, options)))
        << where;

    const auto shared = pick_tones(spectrum, fs, 3);
    const auto direct = estimate_tones_periodogram(x, fs, 3, options);
    ASSERT_EQ(shared.size(), direct.size()) << where;
    for (std::size_t i = 0; i < shared.size(); ++i) {
      EXPECT_TRUE(same_bits(shared[i].frequency_hz, direct[i].frequency_hz))
          << where << ", tone " << i;
      EXPECT_TRUE(same_bits(shared[i].power, direct[i].power))
          << where << ", tone " << i;
    }
    if (c.zero) {
      EXPECT_TRUE(shared.empty()) << where;
    }
  }
}

}  // namespace
}  // namespace safe::dsp
