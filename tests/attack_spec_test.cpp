// Tests for the `--attack <spec>` mini-language (DESIGN.md §17).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/delay_injection.hpp"
#include "attack/dos_jammer.hpp"
#include "attack/spec.hpp"
#include "attack/spoofers.hpp"
#include "radar/link_budget.hpp"

namespace safe::attack {
namespace {

TEST(AttackSpec, EmptyAndNoneSelectNoAttack) {
  EXPECT_EQ(check_attack_spec("").status, spec::Status::kOk);
  EXPECT_EQ(check_attack_spec("none").status, spec::Status::kOk);
  EXPECT_EQ(make_attack(""), nullptr);
  EXPECT_EQ(make_attack("none"), nullptr);
  EXPECT_FALSE(attack_spec_enabled(""));
  EXPECT_FALSE(attack_spec_enabled("none"));
  EXPECT_TRUE(attack_spec_enabled("dos"));
}

TEST(AttackSpec, BuildsEveryKind) {
  EXPECT_EQ(make_attack("dos")->name(), "dos-jammer");
  EXPECT_EQ(make_attack("delay")->name(), "delay-injection");
  EXPECT_EQ(make_attack("spoof")->name(), "spoof");
  EXPECT_EQ(make_attack("chirp")->name(), "chirp");
  EXPECT_EQ(make_attack("entrain")->name(), "entrain");
}

TEST(AttackSpec, UnknownKindIsDistinguishedFromMalformed) {
  const spec::Check unknown = check_attack_spec("quantum");
  EXPECT_EQ(unknown.status, spec::Status::kUnknownKind);
  EXPECT_NE(unknown.message.find("quantum"), std::string::npos);
  // A parameterized unknown kind is still grammar-valid.
  EXPECT_EQ(check_attack_spec("quantum:q=1").status,
            spec::Status::kUnknownKind);
  // Grammar errors rank as malformed even if the kind is unknown.
  EXPECT_EQ(check_attack_spec("quantum:q=").status, spec::Status::kMalformed);
}

TEST(AttackSpec, RejectsGrammarErrors) {
  for (const char* spec : {":", "dos:power", "dos:=1", "dos:power=",
                           "dos:power=1,power=2", "d os", "dos:po wer=1"}) {
    EXPECT_EQ(check_attack_spec(spec).status, spec::Status::kMalformed)
        << spec;
  }
}

TEST(AttackSpec, RejectsUnknownKeysPerKind) {
  EXPECT_EQ(check_attack_spec("dos:slope=2").status, spec::Status::kMalformed);
  EXPECT_EQ(check_attack_spec("spoof:power=1").status,
            spec::Status::kMalformed);
  EXPECT_EQ(check_attack_spec("none:power=1").status, spec::Status::kMalformed);
}

TEST(AttackSpec, RejectsBadValues) {
  for (const char* spec :
       {"dos:power=0", "dos:power=-1", "dos:power=abc", "dos:power=inf",
        "dos:power=nan", "delay:delay_ns=0", "spoof:coherence=0",
        "spoof:coherence=1.5", "chirp:slope=0", "entrain:acquire=0",
        "entrain:acquire=-3", "entrain:jitter=-1", "entrain:replay=-1",
        "entrain:replay=65", "entrain:replay=1.5", "entrain:leak=-2",
        "entrain:acquire= -3"}) {
    EXPECT_EQ(check_attack_spec(spec).status, spec::Status::kMalformed) << spec;
  }
}

TEST(AttackSpec, AcceptsHeaderExamples) {
  for (const char* spec :
       {"dos", "dos:power=0.5", "delay:delay_ns=80,advantage=8",
        "spoof:coherence=0.9,df=200", "chirp:slope=1.00000000002,offset=12",
        "entrain:acquire=3,replay=0,leak=15"}) {
    EXPECT_EQ(check_attack_spec(spec).status, spec::Status::kOk) << spec;
  }
}

TEST(AttackSpec, CheckerAndBuilderAgree) {
  // The fuzz harness cross-checks this property over random inputs; pin the
  // contract here over a curated mix of valid and invalid specs.
  const std::vector<std::string> specs = {
      "",          "none",          "dos",
      "dos:power=0.5,gain=20,bw=2e8", "delay:evade=on",
      "spoof:dr=-3,df=-150,coherence=0.25,gain=2",
      "chirp:slope=2,offset=-6,gain=8",
      "entrain:acquire=1,jitter=0.5,ferr=-40,dr=9,gain=3,replay=64,leak=0.1",
      "dos:power=x", "delay:evade=maybe", "spoof:coherence=2",
      "entrain:replay=100", "warp", "warp:speed=9",
  };
  for (const std::string& spec : specs) {
    const spec::Check check = check_attack_spec(spec);
    if (check.status == spec::Status::kOk) {
      EXPECT_NO_THROW((void)make_attack(spec)) << spec;
    } else {
      EXPECT_FALSE(check.message.empty()) << spec;
      EXPECT_THROW((void)make_attack(spec), std::invalid_argument) << spec;
    }
  }
}

TEST(AttackSpec, DosInheritsJammerDefaults) {
  // A bare "dos" must keep composing with the campaign engine's jammer
  // sweep: the scenario's link budget flows through unless the spec
  // overrides it.
  radar::JammerParameters weak;
  weak.peak_power_w = 1.0e-6;
  const auto inherited = std::dynamic_pointer_cast<DosJammerAttack>(
      make_attack("dos", weak));
  ASSERT_NE(inherited, nullptr);
  EXPECT_DOUBLE_EQ(inherited->jammer().peak_power_w, 1.0e-6);

  const auto overridden = std::dynamic_pointer_cast<DosJammerAttack>(
      make_attack("dos:power=0.5", weak));
  ASSERT_NE(overridden, nullptr);
  EXPECT_DOUBLE_EQ(overridden->jammer().peak_power_w, 0.5);
}

TEST(AttackSpec, DelayKeysReachTheConfig) {
  const auto attack = std::dynamic_pointer_cast<DelayInjectionAttack>(
      make_attack("delay:delay_ns=80,advantage=8,evade=on"));
  ASSERT_NE(attack, nullptr);
  EXPECT_NEAR(attack->range_offset().value(), 12.0, 0.02);
}

TEST(AttackSpec, SpoofKeysReachTheConfig) {
  const auto attack = std::dynamic_pointer_cast<PhaseCoherentSpoofAttack>(
      make_attack("spoof:dr=9,df=300,coherence=0.7,gain=2"));
  ASSERT_NE(attack, nullptr);
  EXPECT_DOUBLE_EQ(attack->config().range_offset_m.value(), 9.0);
  EXPECT_DOUBLE_EQ(attack->config().doppler_shift_hz.value(), 300.0);
  EXPECT_DOUBLE_EQ(attack->config().coherence, 0.7);
  EXPECT_DOUBLE_EQ(attack->config().power_advantage, 2.0);
}

TEST(AttackSpec, EntrainKeysAndSeedReachTheConfig) {
  const auto attack = std::dynamic_pointer_cast<ChirpEntrainmentAttack>(
      make_attack("entrain:acquire=5,jitter=0.5,replay=2,leak=15",
                  radar::JammerParameters{}, 77));
  ASSERT_NE(attack, nullptr);
  EXPECT_EQ(attack->config().acquire_slots, 5u);
  EXPECT_DOUBLE_EQ(attack->config().timing_jitter_m.value(), 0.5);
  EXPECT_EQ(attack->config().replay_delay_slots, 2);
  EXPECT_DOUBLE_EQ(attack->config().leak_noise_factor, 15.0);
  EXPECT_EQ(attack->config().seed, 77u);
  // replay defaults to disabled (-1) when the key is absent.
  const auto free_running = std::dynamic_pointer_cast<ChirpEntrainmentAttack>(
      make_attack("entrain"));
  ASSERT_NE(free_running, nullptr);
  EXPECT_EQ(free_running->config().replay_delay_slots, -1);
}

TEST(AttackSpec, HelpMentionsEveryKind) {
  const std::string help = attack_spec_help();
  for (const char* kind : {"dos", "delay", "spoof", "chirp", "entrain"}) {
    EXPECT_NE(help.find(kind), std::string::npos) << kind;
  }
}

}  // namespace
}  // namespace safe::attack
