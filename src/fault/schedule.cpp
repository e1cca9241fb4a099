#include "fault/schedule.hpp"

#include <limits>
#include <stdexcept>

#include "spec/grammar.hpp"

namespace safe::fault {

void FaultSchedule::add(FaultInjectorPtr injector) {
  if (!injector) {
    throw std::invalid_argument("FaultSchedule::add: null injector");
  }
  injectors_.push_back(std::move(injector));
}

radar::RadarMeasurement FaultSchedule::apply(
    std::int64_t step, bool challenge_slot,
    radar::RadarMeasurement measurement) {
  if (challenge_slot) ++challenge_count_;
  FaultContext context;
  context.step = step;
  context.challenge_slot = challenge_slot;
  context.challenge_index = challenge_count_;
  context.seed = seed_;
  context.has_previous = previous_.has_value();
  if (previous_) context.previous = *previous_;

  for (const auto& injector : injectors_) {
    injector->apply(context, measurement);
  }
  previous_ = measurement;
  return measurement;
}

void FaultSchedule::reset() {
  previous_.reset();
  challenge_count_ = 0;
}

std::string FaultSchedule::name() const {
  if (injectors_.empty()) return "none";
  std::string joined;
  for (const auto& injector : injectors_) {
    if (!joined.empty()) joined += '+';
    joined += injector->name();
  }
  return joined;
}

namespace {

/// Window bounds are steps; any non-negative int64 is a valid one.
constexpr std::int64_t kMaxStep = std::numeric_limits<std::int64_t>::max();

FaultInjectorPtr build_injector(spec::Params& params, const std::string& text) {
  FaultWindow window;
  params.take_index("start", kMaxStep, window.start);
  params.take_index("len", kMaxStep, window.length);
  params.take_index("period", kMaxStep, window.period);
  const std::string& kind = params.kind();
  const auto number = [&params](const std::string& key, double fallback) {
    params.take_number(key, fallback);
    return fallback;
  };
  FaultInjectorPtr injector;
  if (kind == "dropout") {
    const double prob = number("prob", 1.0);
    if (!(prob >= 0.0 && prob <= 1.0)) params.fail("`prob` must be in [0, 1]");
    injector = std::make_shared<DropoutBurstFault>(window, prob);
  } else if (kind == "stuck") {
    injector = std::make_shared<StuckAtFault>(window);
  } else if (kind == "nan") {
    injector = std::make_shared<NonFiniteFault>(window, /*use_inf=*/false);
  } else if (kind == "inf") {
    injector = std::make_shared<NonFiniteFault>(window, /*use_inf=*/true);
  } else if (kind == "bias") {
    injector = std::make_shared<BiasRampFault>(
        window, units::Meters{number("slope", 0.5)},
        units::MetersPerSecond{number("vslope", 0.0)});
  } else if (kind == "quantize") {
    injector = std::make_shared<QuantizeSaturateFault>(
        window, units::Meters{number("step", 4.0)},
        units::Meters{number("max", 120.0)},
        units::MetersPerSecond{number("vmax", 30.0)});
  } else if (kind == "flap") {
    injector = std::make_shared<ChallengeFlappingFault>(window);
  } else if (kind == "skip") {
    injector = std::make_shared<ClockSkipFault>(window);
  } else {
    params.fail("unknown injector `" + kind + "` in `" + text + "`");
  }
  params.reject_leftovers();
  params.check().throw_if_failed();
  return injector;
}

}  // namespace

FaultSchedule parse_fault_spec(const std::string& text, std::uint64_t seed) {
  FaultSchedule schedule(seed);
  if (text.empty() || text == "none") return schedule;
  for (const std::string& clause : spec::split_outside_quotes(text, ";+")) {
    if (clause.empty()) continue;
    spec::Params params = spec::parse_clause(clause, "fault");
    schedule.add(build_injector(params, text));
  }
  return schedule;
}

std::string fault_spec_help() {
  return "fault spec: <kind>:<k=v,...>[;<kind>:...] with kinds "
         "dropout(start,len,period,prob) stuck(start,len,period) "
         "nan|inf(start,len,period) bias(start,len,slope,vslope) "
         "quantize(start,len,step,max,vmax) flap(start,len) "
         "skip(start,len,period); len=0 means unbounded";
}

}  // namespace safe::fault
