#include "sim/noise.hpp"

#include <stdexcept>

namespace safe::sim {

namespace {

double checked_stddev(double stddev) {
  if (!(stddev >= 0.0)) {
    throw std::invalid_argument("GaussianNoise: stddev must be >= 0");
  }
  return stddev;
}

using UniformRange = std::uniform_real_distribution<double>::param_type;

// Validated before std::uniform_real_distribution sees it, which requires
// lo <= hi.
UniformRange checked_range(double lo, double hi) {
  if (!(lo < hi)) {
    throw std::invalid_argument("UniformNoise: need lo < hi");
  }
  return UniformRange(lo, hi);
}

}  // namespace

// std::normal_distribution requires stddev > 0. A zero-stddev source never
// draws (sample() returns the mean), so its distribution gets a placeholder.
GaussianNoise::GaussianNoise(double mean, double stddev, std::uint64_t seed)
    : mean_(mean),
      stddev_(checked_stddev(stddev)),
      rng_(seed),
      dist_(mean, stddev_ > 0.0 ? stddev_ : 1.0) {}

double GaussianNoise::sample() {
  if (stddev_ == 0.0) return mean_;
  return dist_(rng_);
}

UniformNoise::UniformNoise(double lo, double hi, std::uint64_t seed)
    : rng_(seed), dist_(checked_range(lo, hi)) {}

double UniformNoise::sample() { return dist_(rng_); }

}  // namespace safe::sim
