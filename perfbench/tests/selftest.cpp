// Self-tests of the benchmark's own rules: the percentile rule, the metric
// naming charset, the windowed tail and open-loop latency from the due time.
// Exit code = number of failed checks.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_rule() {
  using perfbench::highest_supported_percentile;
  using perfbench::samples_beyond;
  expect(highest_supported_percentile(19) == 0.0, "19 samples support no percentile");
  expect(highest_supported_percentile(20) == 50.0, "20 samples support p50");
  expect(highest_supported_percentile(99) == 50.0, "99 samples leave 9 beyond p90");
  expect(highest_supported_percentile(100) == 90.0, "100 samples support p90");
  expect(highest_supported_percentile(999) == 90.0, "999 samples leave 9 beyond p99");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples support p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");
  expect(samples_beyond(1000, 99.0) == 10, "p99 of 1000 has 10 beyond");

  const std::vector<double> v = ramp(1000);
  expect(perfbench::percentile_sorted(v, 50.0) == 500.0, "nearest-rank p50");
  expect(perfbench::percentile_sorted(v, 99.0) == 990.0, "nearest-rank p99");
  const perfbench::Summary s = perfbench::summarize(ramp(1000));
  expect(s.n == 1000 && s.p99 == 990.0 && s.tail_q == 99.0,
         "summary reports p99 and the supported tail");
  expect(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("latency_p99_us"), "plain name");
  expect(valid_metric_name("radar.measure_p50_us"), "dotted layer name");
  expect(valid_metric_name("step.other-p99"), "dash allowed");
  expect(valid_metric_name("9lives"), "leading digit allowed");
  expect(!valid_metric_name(""), "empty rejected");
  expect(!valid_metric_name(".hidden"), "leading dot rejected");
  expect(!valid_metric_name("_x"), "leading underscore rejected");
  expect(!valid_metric_name("p99 us"), "space rejected");
  expect(!valid_metric_name("lat/us"), "slash rejected");
  expect(!valid_metric_name("µs"), "non-ASCII rejected");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters allowed");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(perfbench::valid_unit("1/s") && perfbench::valid_unit("%"),
         "unit charset");
  expect(!perfbench::valid_unit("frames per s"), "unit with spaces rejected");
}

void open_loop_latency() {
  // 1e6 frames/s: frame i is due at 1000 + 1000 * i ns.
  const perfbench::OpenLoopSchedule schedule(1000, 1e6);
  expect(schedule.due_ns(0) == 1000 && schedule.due_ns(5) == 6000,
         "due times follow the fixed schedule");
  expect(schedule.latency_ns(5, 6500) == 500, "latency counts from due");
  // A 10 us stall delays frames 0..9; each is charged from its own due time,
  // not from when the stalled generator finally sent it.
  const std::int64_t resume = 11000;
  std::int64_t total = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    total += schedule.latency_ns(i, resume + 100);
  }
  expect(total == (10100 + 1100) * 10 / 2, "a stall is charged to every frame it delays");
}

void windowed_tail() {
  // Ten windows of 2000 samples at 100; one window holds a 20-sample stall.
  std::vector<double> v(20000, 100.0);
  for (std::size_t i = 4000; i < 4100; ++i) v[i] = 1e6;
  expect(perfbench::windowed_p99(v, 2000) == 100.0,
         "a stall confined to one window does not move the windowed p99");
  bool threw = false;
  try {
    (void)perfbench::windowed_p99(v, 500);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a window too small for a p99 is rejected");
}

}  // namespace

int main() {
  percentile_rule();
  metric_names();
  open_loop_latency();
  windowed_tail();
  std::printf("%s (%d failed)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures;
}
