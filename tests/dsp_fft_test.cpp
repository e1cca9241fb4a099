// Tests for FFT, windows, and the periodogram tone estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"

namespace safe::dsp {
namespace {

ComplexSignal make_tone(double freq_hz, double fs, std::size_t n,
                        double amplitude = 1.0, double phase = 0.0) {
  ComplexSignal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(amplitude, 2.0 * std::numbers::pi * freq_hz *
                                         static_cast<double>(i) / fs +
                                     phase);
  }
  return x;
}

void add_noise(ComplexSignal& x, double sigma, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, sigma / std::sqrt(2.0));
  for (auto& xi : x) xi += Complex{dist(rng), dist(rng)};
}

// The textbook radix-2 loop: std::complex operator* and the twiddle
// recurrence w *= wlen run again inside every block. The library kernel
// must reproduce it bit for bit.
void reference_fft(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1U;
    for (; j & bit; bit >>= 1U) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1U) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wlen = std::polar(1.0, angle);
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& xi : x) xi *= inv_n;
  }
}

// Gaussian samples; a draw of exactly zero is vanishingly unlikely, so every
// component is nonzero and signed zeros cannot arise in the inputs.
ComplexSignal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(n);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  return x;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise equality of two spectra; with `ignore_zero_sign`, +0 and -0
// components compare equal (and every other value must still match bitwise).
::testing::AssertionResult bitwise_equal(const ComplexSignal& a,
                                         const ComplexSignal& b,
                                         bool ignore_zero_sign = false) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  const auto same = [&](double u, double v) {
    return same_bits(u, v) || (ignore_zero_sign && u == 0.0 && v == 0.0);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].real(), b[i].real()) || !same(a[i].imag(), b[i].imag())) {
      return ::testing::AssertionFailure()
             << "bin " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Fft, RejectsNonPowerOfTwoInPlace) {
  ComplexSignal x(3);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  ComplexSignal x(8);
  x[0] = Complex{1.0, 0.0};
  fft_inplace(x);
  for (const auto& bin : x) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDcBin) {
  ComplexSignal x(16, Complex{1.0, 0.0});
  fft_inplace(x);
  EXPECT_NEAR(std::abs(x[0]), 16.0, 1e-10);
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, SingleBinToneLandsOnBin) {
  const std::size_t n = 64;
  // Tone at exactly bin 5: f = 5 * fs / n.
  const ComplexSignal x = make_tone(5.0, static_cast<double>(n), n);
  ComplexSignal spec = x;
  fft_inplace(spec);
  EXPECT_NEAR(std::abs(spec[5]), static_cast<double>(n), 1e-9);
  EXPECT_NEAR(std::abs(spec[4]), 0.0, 1e-9);
}

TEST(Fft, RoundTripIdentity) {
  std::mt19937 rng(7);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(128);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  ComplexSignal y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalTheorem) {
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(256);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  double time_energy = 0.0;
  for (const auto& xi : x) time_energy += std::norm(xi);
  ComplexSignal spec = x;
  fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& si : spec) freq_energy += std::norm(si);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy, 1e-8);
}

TEST(Fft, LinearityProperty) {
  const ComplexSignal a = make_tone(3.0, 64.0, 64);
  const ComplexSignal b = make_tone(9.0, 64.0, 64, 0.5);
  ComplexSignal sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + b[i];
  ComplexSignal fa = a, fb = b, fsum = sum;
  fft_inplace(fa);
  fft_inplace(fb);
  fft_inplace(fsum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (2.0 * fa[i] + fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ZeroPaddingPreservesSpectralShape) {
  const ComplexSignal x = make_tone(100.0, 1000.0, 100);
  const ComplexSignal spec = fft(x, 1024);
  EXPECT_EQ(spec.size(), 1024u);
  // Peak should be near bin 1024 * 100/1000 = 102.4.
  std::size_t peak = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (std::abs(spec[i]) > best) {
      best = std::abs(spec[i]);
      peak = i;
    }
  }
  EXPECT_NEAR(static_cast<double>(peak), 102.4, 1.0);
}

TEST(Fft, RealSignalOverloadMatchesComplex) {
  RealSignal r{1.0, 2.0, 3.0, 4.0};
  ComplexSignal c{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}, {4.0, 0.0}};
  const auto fr = fft(r);
  const auto fc = fft(c);
  ASSERT_EQ(fr.size(), fc.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    EXPECT_NEAR(std::abs(fr[i] - fc[i]), 0.0, 1e-12);
  }
}

TEST(Fft, InPlaceIsBitIdenticalToTextbookLoop) {
  for (std::size_t n = 1; n <= 8192; n <<= 1U) {
    const ComplexSignal x = random_signal(n, static_cast<unsigned>(n));
    ComplexSignal fast = x;
    ComplexSignal ref = x;
    fft_inplace(fast);
    reference_fft(ref, /*inverse=*/false);
    EXPECT_TRUE(bitwise_equal(fast, ref)) << "forward, n = " << n;

    fast = x;
    ref = x;
    ifft_inplace(fast);
    reference_fft(ref, /*inverse=*/true);
    EXPECT_TRUE(bitwise_equal(fast, ref)) << "inverse, n = " << n;
  }
}

TEST(Fft, ConcurrentTransformsAreBitIdenticalToTextbookLoop) {
  // Four threads transform every size at once, in different orders and
  // alternating directions, so the shared twiddle tables are built while
  // other threads read them.
  constexpr std::size_t kSizes = 14;  // 1 ... 8192
  std::vector<ComplexSignal> inputs;
  std::vector<ComplexSignal> forward;
  std::vector<ComplexSignal> inverse;
  for (std::size_t s = 0; s < kSizes; ++s) {
    const std::size_t n = std::size_t{1} << s;
    inputs.push_back(random_signal(n, static_cast<unsigned>(n + 7)));
    forward.push_back(inputs.back());
    reference_fft(forward.back(), /*inverse=*/false);
    inverse.push_back(inputs.back());
    reference_fft(inverse.back(), /*inverse=*/true);
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * kSizes; ++i) {
        const std::size_t s = (t % 2 == 0 ? i : 2 * kSizes - 1 - i) / 2;
        const bool inv = (i + t) % 2 == 1;
        ComplexSignal x = inputs[s];
        if (inv) {
          ifft_inplace(x);
        } else {
          fft_inplace(x);
        }
        if (!bitwise_equal(x, inv ? inverse[s] : forward[s])) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0U) << "thread " << t;
  }
}

TEST(Fft, PaddedTransformIsBitIdenticalToExplicitPadding) {
  for (const std::size_t len : {std::size_t{512}, std::size_t{300}}) {
    const ComplexSignal x = random_signal(len, 41);
    ComplexSignal padded = x;
    padded.resize(4096);
    fft_inplace(padded);
    EXPECT_TRUE(bitwise_equal(fft(x, 4096), padded)) << "length " << len;
  }
}

TEST(Fft, PaddedHannSpectrumIsBitIdenticalToExplicitPadding) {
  // The Hann window's end samples are +-0, and skipping the pure-copy stages
  // may keep a -0 that the explicit transform turns into +0. Only the sign
  // of zero components may differ; the power spectrum is bitwise equal.
  for (const std::size_t len : {std::size_t{512}, std::size_t{300}}) {
    for (unsigned seed = 1; seed <= 20; ++seed) {
      ComplexSignal x = make_tone(0.0437 * static_cast<double>(seed), 1.0, len);
      add_noise(x, 0.2, seed);
      apply_window(x, make_window(WindowKind::kHann, len));
      ComplexSignal padded = x;
      padded.resize(4096);
      fft_inplace(padded);
      const ComplexSignal fast = fft(x, 4096);
      EXPECT_TRUE(bitwise_equal(fast, padded, /*ignore_zero_sign=*/true));
      const RealSignal p_fast = power_spectrum(fast);
      const RealSignal p_ref = power_spectrum(padded);
      ASSERT_EQ(p_fast.size(), p_ref.size());
      EXPECT_EQ(std::memcmp(p_fast.data(), p_ref.data(),
                            p_fast.size() * sizeof(double)),
                0)
          << "length " << len << ", seed " << seed;
    }
  }
}

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowKind::kRectangular, 8);
  for (const double wi : w) EXPECT_EQ(wi, 1.0);
}

TEST(Window, HannEndpointsAreZero) {
  const auto w = make_window(WindowKind::kHann, 16);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[8], 1.0, 0.05);  // near-center near 1
}

TEST(Window, HammingEndpointsNonZero) {
  const auto w = make_window(WindowKind::kHamming, 16);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
}

TEST(Window, BlackmanIsSymmetric) {
  const auto w = make_window(WindowKind::kBlackman, 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST(Window, LengthOneIsUnity) {
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann,
                    WindowKind::kHamming, WindowKind::kBlackman}) {
    const auto w = make_window(kind, 1);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 1.0);
  }
}

TEST(Window, CoherentGainOfRectangularIsLength) {
  const auto w = make_window(WindowKind::kRectangular, 10);
  EXPECT_DOUBLE_EQ(window_coherent_gain(w), 10.0);
}

TEST(Window, ApplyWindowLengthMismatchThrows) {
  ComplexSignal x(4);
  EXPECT_THROW(apply_window(x, make_window(WindowKind::kHann, 5)),
               std::invalid_argument);
}

TEST(Periodogram, RecoversSingleToneFrequency) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(47'000.0, fs, 512);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, 47'000.0, 100.0);
}

TEST(Periodogram, RecoversNegativeFrequency) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(-123'456.0, fs, 512);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, -123'456.0, 200.0);
}

TEST(Periodogram, SeparatesTwoTones) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(50'000.0, fs, 1024);
  const ComplexSignal y = make_tone(200'000.0, fs, 1024, 0.8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  const auto tones = estimate_tones_periodogram(x, fs, 2);
  ASSERT_EQ(tones.size(), 2u);
  // Strongest first.
  EXPECT_NEAR(tones[0].frequency_hz, 50'000.0, 300.0);
  EXPECT_NEAR(tones[1].frequency_hz, 200'000.0, 300.0);
}

TEST(Periodogram, ZeroSignalYieldsNoTone) {
  ComplexSignal x(256);
  EXPECT_FALSE(estimate_dominant_tone(x, 1.0e6).has_value());
}

TEST(Periodogram, EmptySignalYieldsNothing) {
  EXPECT_TRUE(estimate_tones_periodogram({}, 1.0e6, 3).empty());
}

TEST(Periodogram, InvalidSampleRateThrows) {
  ComplexSignal x(16, Complex{1.0, 0.0});
  EXPECT_THROW(estimate_tones_periodogram(x, 0.0, 1), std::invalid_argument);
}

TEST(Periodogram, ToleratesModerateNoise) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(75'000.0, fs, 1024);
  add_noise(x, 0.3, 99);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, 75'000.0, 500.0);
}

class PeriodogramSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodogramSweep, FrequencyRecoveredAcrossBand) {
  const double fs = 1.0e6;
  const double f = GetParam();
  const ComplexSignal x = make_tone(f, fs, 1024);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, f, 250.0);
}

INSTANTIATE_TEST_SUITE_P(Band, PeriodogramSweep,
                         ::testing::Values(-400'000.0, -250'000.0, -60'500.0,
                                           -5'000.0, 5'250.0, 33'333.0,
                                           120'000.0, 249'999.0, 333'221.0,
                                           450'000.0));

}  // namespace
}  // namespace safe::dsp
