// Composable fault schedules + the `--fault=<spec>` mini-language.
//
// A FaultSchedule owns an ordered list of injectors and the per-run stream
// state they need (previously delivered measurement, challenge count).
// Schedules are value types: a simulation copies the configured schedule so
// repeated runs start from identical state.
//
// Spec grammar (examples):
//   "dropout:start=60,len=10"
//   "nan:start=100,len=1,period=25"
//   "bias:start=50,slope=0.4;flap:start=150"
//   "dropout:start=40,len=0,prob=0.2"       (len=0 -> unbounded window)
// Multiple injectors are separated by ';' (or '+') and apply in order.
// Each is a spec-kernel clause (spec/grammar.hpp): window values are
// non-negative integer steps and `prob` lies in [0, 1].
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/injectors.hpp"

namespace safe::fault {

class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::uint64_t seed) : seed_(seed) {}

  /// Appends an injector; application order is insertion order.
  void add(FaultInjectorPtr injector);

  /// Runs every injector over the measurement for this epoch and records the
  /// delivered (post-fault) measurement as stream history.
  [[nodiscard]] radar::RadarMeasurement apply(
      std::int64_t step, bool challenge_slot,
      radar::RadarMeasurement measurement);

  /// Clears stream history (start of a fresh run), keeping the injectors.
  void reset();

  [[nodiscard]] bool empty() const { return injectors_.size() == 0; }
  [[nodiscard]] std::size_t size() const { return injectors_.size(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// '+'-joined injector names ("dropout+flap"), or "none" when empty.
  [[nodiscard]] std::string name() const;

 private:
  std::vector<FaultInjectorPtr> injectors_;
  std::uint64_t seed_ = 1;
  std::optional<radar::RadarMeasurement> previous_;
  std::int64_t challenge_count_ = 0;
};

/// Parses the `--fault` spec language into a schedule. Throws
/// std::invalid_argument with a message naming the offending token on
/// malformed input. An empty spec (or "none") yields an empty schedule.
[[nodiscard]] FaultSchedule parse_fault_spec(const std::string& spec,
                                             std::uint64_t seed = 1);

/// One-line usage string for CLIs exposing `--fault`.
[[nodiscard]] std::string fault_spec_help();

}  // namespace safe::fault
