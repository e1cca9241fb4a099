#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void append_gaps_us(const std::vector<std::int64_t>& stamps,
                    std::vector<double>& out) {
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    out.push_back(static_cast<double>(stamps[i] - stamps[i - 1]) * 1e-3);
  }
}

Normalized timed_setup(int repeats, const std::function<void(int)>& prepare) {
  std::vector<double> times;
  std::vector<double> calibrations;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    prepare(i);
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    calibrations.push_back(host_calibration_s(1));
  }
  return Normalized{.value = median(times),
                    .calibration_s = median(calibrations)};
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss carries the parent's peak across exec,
  // so a process started from a large runner would report the runner.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void write_spans(const Tracer& tracer, const RunOptions& options) {
  if (options.spans_path.empty()) return;
  std::ofstream out(options.spans_path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + options.spans_path);
  }
  tracer.write_csv(out);
}

void report_idle_runtime(Report& report) {
  report.metric("runtime.trial_p50_s", 0.0, "s");
  report.metric("runtime.trial_p99_s", 0.0, "s");
  report.metric("runtime.parallel_efficiency", 0.0, "ratio");
  report.metric("runtime.sink_us_total", 0.0, "us");
}

void report_idle_serve(Report& report) {
  const Summary none;
  report.distribution("serve.encode", none, "us");
  report.distribution("serve.decode", none, "us");
  report.distribution("serve.session", none, "us");
  report.metric("serve.service_us", 0.0, "us");
}

}  // namespace perfbench
