#include "detect/spec.hpp"

#include <utility>
#include <vector>

#include "detect/backends.hpp"

namespace safe::detect {

namespace {

/// The builder's outcome; `detector` stays null when only checking.
struct BuildResult {
  spec::Check check;
  DetectorBackendPtr detector;
};

void take_fraction(spec::Params& params, const std::string& key,
                   double& out) {
  params.take_number(key, out);
  if (!(out > 0.0) || out >= 1.0) {
    params.fail("`" + key + "` must be in (0, 1)");
  }
}

/// The residual backends' `power` flag is written 0 or 1.
void take_power_flag(spec::Params& params, bool& out) {
  double power = 1.0;
  params.take_number("power", power);
  if (power != 0.0 && power != 1.0) params.fail("`power` must be 0 or 1");
  out = power != 0.0;
}

BuildResult build_cra(spec::Params& params,
                      const cra::DetectorOptions& defaults,
                      bool want_detector) {
  cra::DetectorOptions options = defaults;
  params.take_count("clear", options.clear_after_silent_challenges);
  params.reject_leftovers();
  if (!params.ok() || !want_detector) return {params.check(), nullptr};
  return {{}, std::make_unique<CraBackend>(options)};
}

BuildResult build_chi2(spec::Params& params, bool want_detector) {
  ChiSquareBackendOptions options;
  params.take_positive("threshold", options.threshold);
  params.take_count("window", options.window);
  params.take_count("consecutive", options.required_consecutive);
  params.take_count("clear", options.clear_after_quiet);
  take_fraction(params, "forgetting", options.variance_forgetting);
  take_power_flag(params, options.alarm_on_power);
  params.reject_leftovers();
  if (!params.ok() || !want_detector) return {params.check(), nullptr};
  return {{}, std::make_unique<ChiSquareBackend>(options)};
}

BuildResult build_ar(spec::Params& params, bool want_detector) {
  ArResidualBackendOptions options;
  params.take_count("order", options.order);
  params.take_positive("threshold", options.threshold);
  params.take_count("window", options.window);
  params.take_count("consecutive", options.required_consecutive);
  params.take_count("clear", options.clear_after_quiet);
  take_fraction(params, "forgetting", options.variance_forgetting);
  take_power_flag(params, options.alarm_on_power);
  params.reject_leftovers();
  if (options.order > 16) params.fail("`order` must be in [1, 16]");
  if (!params.ok() || !want_detector) return {params.check(), nullptr};
  return {{}, std::make_unique<ArResidualBackend>(options)};
}

BuildResult build(const std::string& text,
                  const cra::DetectorOptions& cra_defaults,
                  bool want_detector);

BuildResult build_fusion(spec::Params& params,
                         const cra::DetectorOptions& cra_defaults,
                         bool want_detector) {
  std::string members_raw;
  if (!params.take_raw("members", members_raw)) {
    params.fail("fusion needs `members=a+b[+c]`");
  }
  std::vector<std::string> members;
  for (const std::string& member :
       spec::split_outside_quotes(members_raw, "+")) {
    if (!member.empty()) members.push_back(member);
  }
  if (members.empty()) params.fail("fusion members list is empty");
  std::size_t quorum = members.size() / 2 + 1;  // default: strict majority
  params.take_count("quorum", quorum);
  params.reject_leftovers();
  if (quorum > members.size()) {
    params.fail("fusion quorum exceeds the member count");
  }
  if (!params.ok()) return {params.check(), nullptr};

  std::vector<DetectorBackendPtr> children;
  for (const std::string& name : members) {
    if (name == "fusion") params.fail("fusion cannot nest fusion");
    if (!params.ok()) return {params.check(), nullptr};
    // Members are bare backend names running their defaults.
    BuildResult child = build(name, cra_defaults, want_detector);
    if (!child.check.ok()) return child;
    children.push_back(std::move(child.detector));
  }
  if (!want_detector) return {};
  return {{}, std::make_unique<FusionBackend>(std::move(children), quorum)};
}

BuildResult build(const std::string& text,
                  const cra::DetectorOptions& cra_defaults,
                  bool want_detector) {
  if (text.empty()) {
    if (!want_detector) return {};
    return {{}, std::make_unique<CraBackend>(cra_defaults)};
  }
  spec::Params params = spec::parse_clause(text, "detector");
  const std::string& backend = params.kind();
  if (!params.ok()) return {params.check(), nullptr};
  if (backend == "cra") return build_cra(params, cra_defaults, want_detector);
  if (backend == "chi2") return build_chi2(params, want_detector);
  if (backend == "ar") return build_ar(params, want_detector);
  if (backend == "fusion") {
    return build_fusion(params, cra_defaults, want_detector);
  }
  return {{spec::Status::kUnknownKind,
           "detector spec: unknown backend `" + backend +
               "` (cra, chi2, ar, fusion)"},
          nullptr};
}

}  // namespace

spec::Check check_detector_spec(const std::string& text) {
  return build(text, cra::DetectorOptions{}, /*want_detector=*/false).check;
}

DetectorBackendPtr make_detector(const std::string& text,
                                 const cra::DetectorOptions& cra_defaults) {
  BuildResult result = build(text, cra_defaults, /*want_detector=*/true);
  result.check.throw_if_failed();
  return std::move(result.detector);
}

std::string detector_spec_help() {
  return "detector spec: <backend>[:<k=v,...>] with backends "
         "cra(clear) "
         "chi2(threshold,window,consecutive,clear,forgetting,power) "
         "ar(order,threshold,window,consecutive,clear,forgetting,power) "
         "fusion(members=a+b[+c],quorum); empty or `cra` = the paper's "
         "challenge-response detector";
}

}  // namespace safe::detect
