#include "platoon/spec.hpp"

#include <stdexcept>

#include "attack/spec.hpp"
#include "detect/spec.hpp"
#include "fault/schedule.hpp"

namespace safe::platoon {

namespace {

/// Hard ceiling on the platoon length: 64 vehicles is far beyond any string
/// the propagation metrics are meaningful for, and bounds the per-trial
/// cost a campaign spec can demand.
constexpr std::size_t kMaxSize = 64;

/// Takes a nested spec of another language ("none" = inherit) and records
/// its checker's verdict as this spec's failure.
template <typename Checker>
void take_sub_spec(spec::Params& params, const std::string& key,
                   std::string& out, Checker check) {
  std::string raw;
  if (!params.take_raw(key, raw)) return;
  out = spec::none_as_empty(raw);
  const spec::Check sub = check(out);
  if (!sub.ok()) params.fail(sub.message);
}

/// One implementation behind the checker and the builder: a classification
/// that diverged from the parser would let malformed specs into campaigns
/// (or reject valid ones at the CLI), so both entry points share this.
spec::Check parse_into(const std::string& text, PlatoonOptions& out) {
  spec::Params params = spec::parse_list(text, "platoon");
  const bool cutin_requested = params.has("cutin_into");
  const bool cutin_start_set = params.has("cutin_start");
  const bool cutin_len_set = params.has("cutin_len");
  const bool cutin_frac_set = params.has("cutin_frac");

  params.take_count("n", out.size);
  params.take_count("attacked", out.attacked);
  params.take_switch("multi_target", out.multi_target);

  std::string controller;
  if (params.take_raw("controller", controller)) {
    if (controller == "acc") {
      out.controller = core::FollowerController::kAccHierarchy;
    } else if (controller == "idm") {
      out.controller = core::FollowerController::kIdm;
    } else {
      params.fail("unknown controller `" + controller + "` (acc or idm)");
    }
  }

  take_sub_spec(params, "detector", out.detector_spec,
                detect::check_detector_spec);
  take_sub_spec(params, "attack", out.attack_spec, attack::check_attack_spec);
  take_sub_spec(params, "fault", out.fault_spec, [](const std::string& f) {
    try {
      (void)fault::parse_fault_spec(f);
    } catch (const std::invalid_argument& e) {
      return spec::Check{spec::Status::kMalformed, e.what()};
    }
    return spec::Check{};
  });

  double gap = out.initial_gap_m.value();
  params.take_number("gap", gap);
  if (!(gap > 0.0) || gap > 1.0e4) {
    params.fail("`gap` must be in (0, 10000] meters");
  }
  out.initial_gap_m = units::Meters{gap};

  params.take_number("rcs_scale", out.second_target_rcs_scale);
  if (!(out.second_target_rcs_scale > 0.0) ||
      out.second_target_rcs_scale > 1.0) {
    params.fail("`rcs_scale` must be in (0, 1]");
  }

  double cutin_start = 0.0;
  double cutin_len = 0.0;
  double cutin_frac = out.cutin.gap_fraction;
  params.take_count("cutin_into", out.cutin.into);
  params.take_number("cutin_start", cutin_start);
  params.take_number("cutin_len", cutin_len);
  params.take_number("cutin_frac", cutin_frac);
  params.reject_leftovers();

  if (out.size < 2 || out.size > kMaxSize) {
    params.fail("`n` must be in [2, " + std::to_string(kMaxSize) + "]");
  }
  if (out.attacked >= out.size) {
    params.fail(
        "`attacked` must name a follower (1 <= attacked <= n-1)");
  }
  if ((cutin_start_set || cutin_len_set || cutin_frac_set) &&
      !cutin_requested) {
    params.fail("cutin_* keys require `cutin_into`");
  }
  if (cutin_requested) {
    if (out.cutin.into >= out.size) {
      params.fail("`cutin_into` must name a follower (1 <= index <= n-1)");
    }
    if (!cutin_start_set || !cutin_len_set) {
      params.fail("`cutin_into` requires `cutin_start` and `cutin_len`");
    }
    if (!(cutin_start >= 0.0)) params.fail("`cutin_start` must be >= 0");
    if (!(cutin_len > 0.0)) params.fail("`cutin_len` must be > 0");
    if (!(cutin_frac > 0.0) || cutin_frac >= 1.0) {
      params.fail("`cutin_frac` must be in (0, 1)");
    }
    out.cutin.start_s = units::Seconds{cutin_start};
    out.cutin.duration_s = units::Seconds{cutin_len};
    out.cutin.gap_fraction = cutin_frac;
  }
  return params.check();
}

}  // namespace

spec::Check check_platoon_spec(const std::string& text) {
  PlatoonOptions ignored;
  return parse_into(text, ignored);
}

PlatoonOptions parse_platoon_spec(const std::string& text) {
  PlatoonOptions options;
  parse_into(text, options).throw_if_failed();
  return options;
}

std::string platoon_spec_help() {
  return "platoon spec: comma-separated key=value with keys "
         "n(2..64) attacked(1..n-1) controller(acc|idm) "
         "detector(<detect spec>, quoted if it has commas) "
         "fault(<fault spec>, quoted) attack(<attack spec>, quoted) "
         "gap(meters) multi_target(on|off) "
         "rcs_scale((0,1]) cutin_into cutin_start cutin_len "
         "cutin_frac((0,1)); e.g. \"n=8,attacked=3,detector=chi2\"; empty "
         "= the 2-vehicle pair case study";
}

}  // namespace safe::platoon
