// Fuzz harness for the detector-spec mini-language parser.
//
// Contract under test: check_detector_spec() never throws and classifies
// every input as kOk / kMalformed / kUnknownBackend; make_detector() throws
// std::invalid_argument exactly on the non-kOk inputs and otherwise returns
// a working backend. The harness cross-checks the two entry points on every
// input, so a classification that diverges from the builder is a finding,
// not just a crash.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "detect/spec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string spec(reinterpret_cast<const char*>(data), size);
  const safe::spec::Check check = safe::detect::check_detector_spec(spec);
  try {
    const safe::detect::DetectorBackendPtr detector =
        safe::detect::make_detector(spec);
    if (check.status != safe::spec::Status::kOk || !detector) {
      __builtin_trap();  // builder accepted what the checker rejected
    }
    (void)detector->name();
  } catch (const std::invalid_argument&) {
    if (check.status == safe::spec::Status::kOk) {
      __builtin_trap();  // checker accepted what the builder rejected
    }
  }
  return 0;
}
