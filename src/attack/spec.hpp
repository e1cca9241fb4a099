// The `--attack <spec>` mini-language (DESIGN.md §17).
//
// Grammar (same family as the fault/detector/platoon specs):
//   attack_spec := <kind> [":" key "=" value ("," key "=" value)*]
//   kind        := none | dos | delay | spoof | chirp | entrain
//
// Examples:
//   "dos"                                 paper Section 6.2 jammer
//   "dos:power=0.5"                       0.5 W jammer
//   "delay:delay_ns=80,advantage=8"       +12 m counterfeit, 9 dB capture
//   "spoof:coherence=0.9,df=200"          phase-coherent range/Doppler spoof
//   "chirp:slope=1.00000000002,offset=12" slope-mismatched rogue radar
//   "entrain:acquire=3,replay=0,leak=15"  entrained perfect challenge replay
//
// An empty spec (or "none") selects no attack. The grammar, its value rules
// and the Check result are the spec kernel's (spec/grammar.hpp). Parsing
// throws std::invalid_argument only; check_attack_spec() is the
// non-throwing form and tells a grammar error from a well-formed spec
// naming an unknown kind. Both share one implementation, so the checker
// and the builder always agree (the fuzz harness cross-checks them).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "attack/attack.hpp"
#include "radar/link_budget.hpp"
#include "spec/grammar.hpp"

namespace safe::attack {

/// Validates a spec without building anything (and without throwing).
[[nodiscard]] spec::Check check_attack_spec(const std::string& spec);

/// Builds the attack a spec names, or nullptr for ""/"none". A bare "dos"
/// inherits `jammer_defaults` (the scenario's jammer link budget), so the
/// campaign engine's jammer-power axis composes with the spec language.
/// `seed` feeds the entrainment attacker's per-epoch jitter stream. Throws
/// std::invalid_argument on any spec check_attack_spec() would reject.
[[nodiscard]] std::shared_ptr<AttackModel> make_attack(
    const std::string& spec,
    const radar::JammerParameters& jammer_defaults = {},
    std::uint64_t seed = 0);

/// True when `spec` names an actual attack (non-empty and not "none").
[[nodiscard]] bool attack_spec_enabled(const std::string& spec);

/// One-line usage string for CLIs exposing `--attack`.
[[nodiscard]] std::string attack_spec_help();

}  // namespace safe::attack
