// perfbench: runs one workload of the repo benchmark and prints its result.
//
//   perfbench --workload pair-campaign-music|platoon-fft-n16|
//                        serve-session-replay|serve-open-loop
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//             [--serve-rate R --serve-ladder R1,R2,... --serve-p99-limit-us L]
//
// Human-readable lines first; the last line is the result as one JSON object
// (metrics, outcome counts, failed checks, facts and provenance). Exit code 0
// when every output check passed, 1 when one failed, 2 on a usage error.
// perfbench/run.py builds this binary and turns its result into the
// benchmark's result line.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--serve-rate R --serve-ladder "
               "R1,R2,... --serve-p99-limit-us L]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--spans") {
        options.spans_path = value;
      } else if (arg == "--serve-rate") {
        options.serve_rate = std::stod(value);
      } else if (arg == "--serve-ladder") {
        options.serve_ladder = parse_list(value);
      } else if (arg == "--serve-p99-limit-us") {
        options.serve_p99_limit_us = std::stod(value);
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad argument value: ") + e.what());
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
  options.nproc = std::max(1U, std::thread::hardware_concurrency());

  Report report;
  try {
    if (workload == "pair-campaign-music") {
      report = perfbench::run_pair(options);
    } else if (workload == "platoon-fft-n16") {
      report = perfbench::run_platoon(options);
    } else if (workload == "serve-session-replay") {
      report = perfbench::run_serve_replay(options);
    } else if (workload == "serve-open-loop") {
      report = perfbench::run_serve(options);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 2;
  }

  report.fact("workload", workload);
  report.fact("seed", std::to_string(options.seed));
  report.fact("trace", options.trace ? "1" : "0");
  report.fact("nproc", std::to_string(options.nproc));
  report.fact("compiler", PERFBENCH_COMPILER);
  report.fact("flags", PERFBENCH_FLAGS);
  report.fact("build_type", PERFBENCH_BUILD_TYPE);

  for (const auto& [key, value] : report.facts) {
    std::cout << "  " << key << ": " << value << "\n";
  }
  for (const Report::Metric& m : report.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "  attempted " << report.attempted << " "
            << report.attempted_base << ", failed " << report.failed
            << " (failed_ratio "
            << (report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0)
            << ")\n";
  for (const std::string& failure : report.failures) {
    std::cout << "  CHECK FAILED: " << failure << "\n";
  }
  std::cout << report.to_json() << std::endl;
  return report.correct() ? 0 : 1;
}
