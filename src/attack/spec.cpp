#include "attack/spec.hpp"

#include <utility>

#include "attack/delay_injection.hpp"
#include "attack/dos_jammer.hpp"
#include "attack/spoofers.hpp"

namespace safe::attack {

namespace {

/// The builder's outcome; `attack` stays null when only checking.
struct BuildResult {
  spec::Check check;
  std::shared_ptr<AttackModel> attack;
};

BuildResult build_dos(spec::Params& params,
                      const radar::JammerParameters& jammer_defaults,
                      bool want_attack) {
  radar::JammerParameters jammer = jammer_defaults;
  double power = jammer.peak_power_w;
  double gain = jammer.antenna_gain_dbi.value();
  double bw = jammer.bandwidth_hz.value();
  params.take_positive("power", power);
  params.take_number("gain", gain);
  params.take_positive("bw", bw);
  params.reject_leftovers();
  if (!params.ok() || !want_attack) return {params.check(), nullptr};
  jammer.peak_power_w = power;
  jammer.antenna_gain_dbi = units::Decibels{gain};
  jammer.bandwidth_hz = units::Hertz{bw};
  return {{}, std::make_shared<DosJammerAttack>(jammer)};
}

BuildResult build_delay(spec::Params& params, bool want_attack) {
  DelayInjectionConfig config;
  double delay_ns = config.extra_delay_s.value() * 1.0e9;
  params.take_positive("delay_ns", delay_ns);
  params.take_positive("advantage", config.power_advantage);
  params.take_switch("evade", config.evades_challenges);
  params.reject_leftovers();
  if (!params.ok() || !want_attack) return {params.check(), nullptr};
  config.extra_delay_s = units::Seconds{delay_ns * 1.0e-9};
  return {{}, std::make_shared<DelayInjectionAttack>(config)};
}

BuildResult build_spoof(spec::Params& params, bool want_attack) {
  PhaseCoherentSpoofConfig config;
  double dr = config.range_offset_m.value();
  double df = config.doppler_shift_hz.value();
  params.take_number("dr", dr);
  params.take_number("df", df);
  params.take_positive("coherence", config.coherence);
  params.take_positive("gain", config.power_advantage);
  params.reject_leftovers();
  if (config.coherence > 1.0) params.fail("`coherence` must be in (0, 1]");
  if (!params.ok() || !want_attack) return {params.check(), nullptr};
  config.range_offset_m = units::Meters{dr};
  config.doppler_shift_hz = units::Hertz{df};
  return {{}, std::make_shared<PhaseCoherentSpoofAttack>(config)};
}

BuildResult build_chirp(spec::Params& params, bool want_attack) {
  ChirpModificationConfig config;
  double offset = config.ghost_offset_m.value();
  params.take_positive("slope", config.slope_ratio);
  params.take_number("offset", offset);
  params.take_positive("gain", config.power_advantage);
  params.reject_leftovers();
  if (!params.ok() || !want_attack) return {params.check(), nullptr};
  config.ghost_offset_m = units::Meters{offset};
  return {{}, std::make_shared<ChirpModificationAttack>(config)};
}

BuildResult build_entrain(spec::Params& params, std::uint64_t seed,
                          bool want_attack) {
  ChirpEntrainmentConfig config;
  config.seed = seed;
  double jitter = config.timing_jitter_m.value();
  double ferr = config.freq_error_hz.value();
  double dr = config.range_offset_m.value();
  params.take_count("acquire", config.acquire_slots);
  params.take_non_negative("jitter", jitter);
  params.take_number("ferr", ferr);
  params.take_number("dr", dr);
  params.take_positive("gain", config.power_advantage);
  params.take_index("replay", 64, config.replay_delay_slots);
  params.take_non_negative("leak", config.leak_noise_factor);
  params.reject_leftovers();
  if (!params.ok() || !want_attack) return {params.check(), nullptr};
  config.timing_jitter_m = units::Meters{jitter};
  config.freq_error_hz = units::Hertz{ferr};
  config.range_offset_m = units::Meters{dr};
  return {{}, std::make_shared<ChirpEntrainmentAttack>(config)};
}

BuildResult build(const std::string& text,
                  const radar::JammerParameters& jammer_defaults,
                  std::uint64_t seed, bool want_attack) {
  if (!attack_spec_enabled(text)) return {};  // no attack

  spec::Params params = spec::parse_clause(text, "attack");
  const std::string& kind = params.kind();
  if (!params.ok()) return {params.check(), nullptr};
  if (kind == "none") {
    // "none" with parameters is a spec error, not a quiet no-op.
    params.reject_leftovers();
    return {params.check(), nullptr};
  }
  if (kind == "dos") return build_dos(params, jammer_defaults, want_attack);
  if (kind == "delay") return build_delay(params, want_attack);
  if (kind == "spoof") return build_spoof(params, want_attack);
  if (kind == "chirp") return build_chirp(params, want_attack);
  if (kind == "entrain") return build_entrain(params, seed, want_attack);
  return {{spec::Status::kUnknownKind,
           "attack spec: unknown kind `" + kind +
               "` (none, dos, delay, spoof, chirp, entrain)"},
          nullptr};
}

}  // namespace

spec::Check check_attack_spec(const std::string& text) {
  return build(text, radar::JammerParameters{}, 0, /*want_attack=*/false)
      .check;
}

std::shared_ptr<AttackModel> make_attack(
    const std::string& text, const radar::JammerParameters& jammer_defaults,
    std::uint64_t seed) {
  BuildResult result = build(text, jammer_defaults, seed, /*want_attack=*/true);
  result.check.throw_if_failed();
  return std::move(result.attack);
}

bool attack_spec_enabled(const std::string& spec) {
  return !spec.empty() && spec != "none";
}

std::string attack_spec_help() {
  return "attack spec: <kind>[:<k=v,...>] with kinds "
         "dos(power,gain,bw) "
         "delay(delay_ns,advantage,evade) "
         "spoof(dr,df,coherence,gain) "
         "chirp(slope,offset,gain) "
         "entrain(acquire,jitter,ferr,dr,gain,replay,leak); empty or `none` "
         "= no attack";
}

}  // namespace safe::attack
