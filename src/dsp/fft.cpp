#include "dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace safe::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

namespace {

// Bit-reversed successor of j in an index space of size n: the step the
// textbook permutation loop takes from i - 1 to i.
std::size_t next_bit_reversed(std::size_t j, std::size_t n) {
  std::size_t bit = n >> 1U;
  for (; j & bit; bit >>= 1U) j ^= bit;
  return j ^ bit;
}

// Twiddles of one butterfly stage: w_k = wlen^k for k < len / 2, as re/im
// pairs, produced by the textbook loop's w *= wlen recurrence (each product
// written out as re = ar*br - ai*bi, im = ar*bi + ai*br, which is what
// std::complex operator* returns for finite operands). A stage's table
// depends only on its length and direction, so each is built once per
// process, on first use, and is immutable and shared by every thread
// afterwards. The tables are never freed, so threads still transforming
// during static destruction keep valid pointers.
struct StageTwiddles {
  std::once_flag built;
  std::vector<double> values;  // len / 2 re/im pairs
};

const double* stage_twiddles(std::size_t len, bool inverse) {
  // Indexed by direction and log2(len).
  static auto* const tables = new std::array<
      std::array<StageTwiddles, std::numeric_limits<std::size_t>::digits>,
      2>();
  StageTwiddles& t = (*tables)[inverse ? 1 : 0][static_cast<std::size_t>(
      std::countr_zero(len))];
  std::call_once(t.built, [&t, len, inverse] {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wlen = std::polar(1.0, angle);
    const double lr = wlen.real();
    const double li = wlen.imag();
    t.values.resize(len);
    double wr = 1.0;
    double wi = 0.0;
    for (std::size_t k = 0; k < len / 2; ++k) {
      t.values[2 * k] = wr;
      t.values[2 * k + 1] = wi;
      const double next_r = wr * lr - wi * li;
      wi = wr * li + wi * lr;
      wr = next_r;
    }
  });
  return t.values.data();
}

// Danielson-Lanczos butterflies over a bit-reversed buffer, from stage
// `first_len` up to x.size().
//
// The arithmetic is the textbook loop's, operation for operation, on the
// `double` view of the buffer ([complex.numbers] makes std::complex<double>
// array-compatible with double[2]): the products are written out as above,
// without the libgcc __muldc3 call std::complex makes for the NaN case, and
// a stage's twiddles are the table the recurrence filled rather than a
// recurrence run again inside every block. The result is therefore
// bit-identical to the std::complex loop, provided the compiler does not
// contract a*b - c*d into an FMA (x86-64 without -march=native has no FMA
// to contract into).
void butterflies(ComplexSignal& x, std::size_t first_len, bool inverse) {
  const std::size_t n = x.size();
  double* const data = reinterpret_cast<double*>(x.data());
  for (std::size_t len = first_len; len <= n; len <<= 1U) {
    const std::size_t half = len / 2;
    const double* const tw = stage_twiddles(len, inverse);
    for (std::size_t i = 0; i < n; i += len) {
      double* const top = data + 2 * i;
      double* const bottom = top + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double br = bottom[2 * k];
        const double bi = bottom[2 * k + 1];
        const double vr = br * tw[2 * k] - bi * tw[2 * k + 1];
        const double vi = br * tw[2 * k + 1] + bi * tw[2 * k];
        const double ur = top[2 * k];
        const double ui = top[2 * k + 1];
        top[2 * k] = ur + vr;
        top[2 * k + 1] = ui + vi;
        bottom[2 * k] = ur - vr;
        bottom[2 * k + 1] = ui - vi;
      }
    }
  }
}

void fft_core(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    j = next_bit_reversed(j, n);
    if (i < j) std::swap(x[i], x[j]);
  }
  butterflies(x, 2, inverse);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& xi : x) xi *= inv_n;
  }
}

}  // namespace

void fft_inplace(ComplexSignal& x) { fft_core(x, /*inverse=*/false); }

void ifft_inplace(ComplexSignal& x) { fft_core(x, /*inverse=*/true); }

ComplexSignal fft(const ComplexSignal& x, std::size_t min_size) {
  // Zero-padding x (m = next_pow2(x.size()) samples) by pad = n / m puts
  // input i at bit-reversed slot rev_m(i) * pad with zeros in the pad - 1
  // slots after it, so the first log2(pad) stages only copy x[i] across that
  // group. Scatter each input into its group and start at len = 2 * pad:
  // same values, except that a signed-zero component may keep its sign where
  // the skipped `+ 0` stages would have turned -0 into +0.
  const std::size_t m = next_pow2(x.size());
  const std::size_t n = std::max(m, next_pow2(min_size));
  const std::size_t pad = n / m;
  ComplexSignal out(n);
  for (std::size_t i = 0, j = 0; i < x.size(); ++i) {
    std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(j * pad), pad, x[i]);
    j = next_bit_reversed(j, m);
  }
  butterflies(out, 2 * pad, /*inverse=*/false);
  return out;
}

ComplexSignal fft(const RealSignal& x, std::size_t min_size) {
  ComplexSignal cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = Complex{x[i], 0.0};
  return fft(cx, min_size);
}

RealSignal power_spectrum(const ComplexSignal& spectrum) {
  RealSignal p(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    p[i] = std::norm(spectrum[i]);
  }
  return p;
}

}  // namespace safe::dsp
