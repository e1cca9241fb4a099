// One vehicle's serve stream, shared by the two serve workloads: its DoS
// trace (made by serve::make_measurement_trace with the periodogram
// estimator and the paper pipeline), the encoded HELLO and MEASUREMENT
// frames, and the run_offline() reference every served ESTIMATE must match
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/trace_source.hpp"
#include "serve/wire.hpp"

namespace perfbench {

inline constexpr std::int64_t kServeHorizon = 300;

struct LaneTrace {
  safe::serve::TraceSpec spec;
  std::vector<std::uint8_t> hello;
  std::vector<std::vector<std::uint8_t>> measurements;  ///< encoded frames
  std::vector<std::vector<std::uint8_t>> estimates;  ///< encoded run_offline()
  std::vector<safe::serve::MeasurementFrame> frames;
};

/// Lane `lane` of a run seeded `seed`. Adds the run_offline() wall time to
/// `offline_s` and, when `encode_us` is set, appends each frame's encode
/// time in microseconds.
LaneTrace make_lane_trace(std::uint64_t seed, std::size_t lane,
                          double& offline_s, std::vector<double>* encode_us);

}  // namespace perfbench
