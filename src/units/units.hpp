// Strong unit types and conversions shared by the whole library.
//
// Everything inside the library is SI. Public module APIs (radar, vehicle,
// control, estimation, sensors, core) trade in the strong types below so a
// range can never be passed where a delay is expected; internal hot loops
// unwrap to raw doubles through the explicit `.value()` escape hatch and the
// compat helpers at the bottom. Non-SI spellings (mph, dB) exist only at
// construction edges: `MetersPerSecond` has a `from_mph`, `Decibels` has a
// `to_linear`, and nothing else in the library may open-code those factors
// (`tools/lint/lint.py --check units` enforces this).
#pragma once

#include <cmath>
#include <type_traits>

#include "units/quantity.hpp"

namespace safe::units {

// --- Named quantities ----------------------------------------------------

using Meters = Quantity<Dimension<1, 0, 0>>;
using Seconds = Quantity<Dimension<0, 1, 0>>;
using MetersPerSecond = Quantity<Dimension<1, -1, 0>>;
using MetersPerSecond2 = Quantity<Dimension<1, -2, 0>>;
using Hertz = Quantity<Dimension<0, -1, 0>>;
using HertzPerSecond = Quantity<Dimension<0, -2, 0>>;
using Radians = Quantity<Dimension<0, 0, 1>>;

// Spot-check the dimension algebra at compile time: the aliases above are
// not independent definitions but points on one exponent lattice.
static_assert(
    std::is_same_v<decltype(Meters{} / Seconds{}), MetersPerSecond>);
static_assert(
    std::is_same_v<decltype(MetersPerSecond{} / Seconds{}), MetersPerSecond2>);
static_assert(std::is_same_v<decltype(MetersPerSecond{} * Seconds{}), Meters>);
static_assert(std::is_same_v<decltype(Hertz{} / Seconds{}), HertzPerSecond>);
static_assert(std::is_same_v<decltype(HertzPerSecond{} * Seconds{}), Hertz>);
static_assert(std::is_same_v<decltype(1.0 / Seconds{1.0}), Hertz>);
static_assert(std::is_same_v<decltype(Hertz{} * Seconds{}), double>);
static_assert(std::is_same_v<decltype(Meters{} * Hertz{}), MetersPerSecond>);

// --- Decibels ------------------------------------------------------------

/// Logarithmic power ratio. Deliberately outside the dimension lattice:
/// adding decibels multiplies linear ratios, so dB values must never mix
/// with linear quantities except through the explicit {to,from}_linear
/// edges.
class Decibels {
 public:
  constexpr Decibels() = default;
  constexpr explicit Decibels(double db) : db_(db) {}

  [[nodiscard]] constexpr double value() const { return db_; }

  /// dB -> linear power ratio.
  [[nodiscard]] double to_linear() const { return std::pow(10.0, db_ / 10.0); }

  /// Linear power ratio -> dB.
  static Decibels from_linear(double ratio) {
    return Decibels{10.0 * std::log10(ratio)};
  }

  constexpr Decibels operator+(Decibels other) const {
    return Decibels{db_ + other.db_};
  }
  constexpr Decibels operator-(Decibels other) const {
    return Decibels{db_ - other.db_};
  }
  constexpr Decibels operator-() const { return Decibels{-db_}; }

  friend constexpr auto operator<=>(Decibels, Decibels) = default;

 private:
  double db_ = 0.0;
};

// --- Angle helpers -------------------------------------------------------

inline double sin(Radians a) { return std::sin(a.value()); }
inline double cos(Radians a) { return std::cos(a.value()); }
inline double tan(Radians a) { return std::tan(a.value()); }

// --- Physical constants --------------------------------------------------

inline constexpr MetersPerSecond kSpeedOfLight{299'792'458.0};
inline constexpr double kSpeedOfLightMps = kSpeedOfLight.value();
inline constexpr double kMilesPerHourToMps = 0.44704;

// --- Construction-edge conversions ---------------------------------------

/// Miles per hour -> strong speed (paper parameters are quoted in mph).
constexpr MetersPerSecond from_mph(double mph) {
  return MetersPerSecond{mph * kMilesPerHourToMps};
}

/// Strong speed -> miles per hour (display/reporting edge).
constexpr double to_mph(MetersPerSecond v) {
  return v.value() / kMilesPerHourToMps;
}

/// Round-trip delay of a radar echo from a target at range `d`.
constexpr Seconds range_to_delay(Meters d) {
  return Seconds{2.0 * d.value() / kSpeedOfLightMps};
}

/// Target range implied by a round-trip delay.
constexpr Meters delay_to_range(Seconds delay) {
  return Meters{delay.value() * kSpeedOfLightMps / 2.0};
}

// --- Raw-double compat helpers -------------------------------------------
//
// For internal hot loops and legacy call sites that already unwrapped to
// doubles. Same formulas as the strong edges above, bit for bit.

/// Miles per hour -> meters per second.
constexpr double mph_to_mps(double mph) { return mph * kMilesPerHourToMps; }

/// Meters per second -> miles per hour.
constexpr double mps_to_mph(double mps) { return mps / kMilesPerHourToMps; }

/// Decibels -> linear power ratio.
inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }

/// Linear power ratio -> decibels.
inline double linear_to_db(double linear) { return 10.0 * std::log10(linear); }

/// Round-trip delay for a target at `distance_m` (seconds).
constexpr double range_to_delay_s(double distance_m) {
  return 2.0 * distance_m / kSpeedOfLightMps;
}

/// Target distance implied by a round-trip delay (meters).
constexpr double delay_to_range_m(double delay_s) {
  return delay_s * kSpeedOfLightMps / 2.0;
}

// --- Physical plausibility limits ---------------------------------------
//
// Bounds on what an automotive ranging sensor can legitimately report.
// Anything outside is a sensor fault or an implausibly crude spoof; the
// pipeline's health monitor rejects such samples before they reach the
// controller or the predictors.

/// Generous ceiling on any automotive radar range report (Bosch LRR2 tops
/// out at 200 m; 1 km covers every profile in sensors/).
inline constexpr Meters kMaxPlausibleRange{1000.0};
inline constexpr double kMaxPlausibleRangeM = kMaxPlausibleRange.value();

/// |relative velocity| ceiling: two vehicles closing at ~270 mph.
inline constexpr MetersPerSecond kMaxPlausibleSpeed{120.0};
inline constexpr double kMaxPlausibleSpeedMps = kMaxPlausibleSpeed.value();

// Compile-time sanity on the bounds and the conversion edges they gate.
static_assert(kMaxPlausibleRange > Meters{0.0} &&
                  kMaxPlausibleRange < Meters{100'000.0},
              "plausible range ceiling must stay in the automotive regime");
static_assert(kMaxPlausibleSpeed > MetersPerSecond{0.0} &&
                  kMaxPlausibleSpeed < kSpeedOfLight,
              "plausible speed ceiling must stay sub-luminal");
static_assert(range_to_delay(kMaxPlausibleRange) < Seconds{1.0e-4},
              "max-range round trip must stay inside one radar epoch");
static_assert(from_mph(60.0) > MetersPerSecond{26.8} &&
                  from_mph(60.0) < MetersPerSecond{26.9},
              "mph conversion factor is off");

/// Range report within [0, max]: finite and physically representable.
inline bool plausible_range(Meters d, Meters max_range = kMaxPlausibleRange) {
  return std::isfinite(d.value()) && d >= Meters{0.0} && d <= max_range;
}

/// Relative-velocity report within +/- max: finite and physical.
inline bool plausible_speed(MetersPerSecond v,
                            MetersPerSecond max_speed = kMaxPlausibleSpeed) {
  return std::isfinite(v.value()) && v >= -max_speed && v <= max_speed;
}

/// Raw-double compat form of plausible_range.
inline bool plausible_range_m(double d,
                              double max_range_m = kMaxPlausibleRangeM) {
  return plausible_range(Meters{d}, Meters{max_range_m});
}

/// Raw-double compat form of plausible_speed.
inline bool plausible_speed_mps(double v,
                                double max_speed_mps = kMaxPlausibleSpeedMps) {
  return plausible_speed(MetersPerSecond{v}, MetersPerSecond{max_speed_mps});
}

// --- Literals ------------------------------------------------------------

namespace literals {

constexpr Meters operator""_m(long double v) {
  return Meters{static_cast<double>(v)};
}
constexpr Meters operator""_m(unsigned long long v) {
  return Meters{static_cast<double>(v)};
}
constexpr Seconds operator""_s(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr MetersPerSecond operator""_mps(long double v) {
  return MetersPerSecond{static_cast<double>(v)};
}
constexpr MetersPerSecond operator""_mps(unsigned long long v) {
  return MetersPerSecond{static_cast<double>(v)};
}
constexpr MetersPerSecond2 operator""_mps2(long double v) {
  return MetersPerSecond2{static_cast<double>(v)};
}
constexpr MetersPerSecond2 operator""_mps2(unsigned long long v) {
  return MetersPerSecond2{static_cast<double>(v)};
}
constexpr Hertz operator""_hz(long double v) {
  return Hertz{static_cast<double>(v)};
}
constexpr Hertz operator""_hz(unsigned long long v) {
  return Hertz{static_cast<double>(v)};
}
constexpr HertzPerSecond operator""_hzps(long double v) {
  return HertzPerSecond{static_cast<double>(v)};
}
constexpr HertzPerSecond operator""_hzps(unsigned long long v) {
  return HertzPerSecond{static_cast<double>(v)};
}
constexpr Decibels operator""_db(long double v) {
  return Decibels{static_cast<double>(v)};
}
constexpr Decibels operator""_db(unsigned long long v) {
  return Decibels{static_cast<double>(v)};
}
constexpr Radians operator""_rad(long double v) {
  return Radians{static_cast<double>(v)};
}
constexpr Radians operator""_rad(unsigned long long v) {
  return Radians{static_cast<double>(v)};
}

}  // namespace literals

}  // namespace safe::units
