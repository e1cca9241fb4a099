// Fuzz harness for the platoon-spec mini-language parser.
//
// Contract under test: check_platoon_spec() never throws and returns
// ok/!ok with a diagnostic; parse_platoon_spec() throws
// std::invalid_argument exactly on the !ok inputs (never any other
// exception type) and otherwise returns validated PlatoonOptions. The
// harness cross-checks the two entry points on every input, so a
// checker/builder divergence is a finding, not just a crash.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "platoon/spec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string spec(reinterpret_cast<const char*>(data), size);
  const safe::spec::Check check =
      safe::platoon::check_platoon_spec(spec);
  try {
    const safe::platoon::PlatoonOptions options =
        safe::platoon::parse_platoon_spec(spec);
    if (!check.ok()) {
      __builtin_trap();  // builder accepted what the checker rejected
    }
    // Validated options must honour the documented invariants.
    if (options.size < 2 || options.size > 64 ||
        options.attacked < 1 || options.attacked >= options.size) {
      __builtin_trap();
    }
  } catch (const std::invalid_argument&) {
    if (check.ok()) {
      __builtin_trap();  // checker accepted what the builder rejected
    }
    if (check.message.empty()) {
      __builtin_trap();  // rejections must carry a diagnostic
    }
  }
  return 0;
}
