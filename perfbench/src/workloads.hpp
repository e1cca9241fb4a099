// The benchmark's workloads and what they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "vehicle/leader_profile.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;
  std::string spans_path;  ///< traced runs write their spans here (CSV)
  // serve-open-loop: fixed rate R, the rising ladder after it, and the p99
  // limit a ladder rate must meet (frames/s, frames/s, microseconds).
  double serve_rate = 0.0;
  std::vector<double> serve_ladder;
  double serve_p99_limit_us = 0.0;
};

Report run_pair(const RunOptions& options);
Report run_platoon(const RunOptions& options);
Report run_serve(const RunOptions& options);
Report run_serve_replay(const RunOptions& options);

/// Delegating leader profile that stamps the time of every acceleration()
/// call. Both simulations ask the leader profile exactly once per
/// sampling instant, so the gaps between stamps are the program's own
/// epoch latencies, measured without touching its loop.
class TimedLeader final : public safe::vehicle::LeaderProfile {
 public:
  TimedLeader(std::shared_ptr<const safe::vehicle::LeaderProfile> inner,
              std::vector<std::int64_t>* stamps)
      : inner_(std::move(inner)), stamps_(stamps) {}

  [[nodiscard]] safe::units::MetersPerSecond2 acceleration(
      safe::units::Seconds time) const override {
    stamps_->push_back(now_ns());
    return inner_->acceleration(time);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const safe::vehicle::LeaderProfile> inner_;
  std::vector<std::int64_t>* stamps_;
};

/// Appends the gaps between consecutive stamps, in microseconds.
void append_gaps_us(const std::vector<std::int64_t>& stamps,
                    std::vector<double>& out);


/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Digest rendered as 16 hex digits.
std::string hex64(std::uint64_t value);

/// Host-speed normalization. Shared virtual machines drift in speed by a
/// quarter over minutes, far beyond any bound a change could be judged by.
/// Every timed repetition is therefore calibrated by a benchmark-owned
/// kernel, run on as many threads as the workload uses (the two serve
/// workloads have kernels of their own, see Repetition), and the end-to-end
/// times are reported as they would read on a host where that kernel takes
/// kCalibrationReferenceS: throughput x (calibration / reference), times x
/// (reference / calibration). The raw figures are printed alongside.
inline constexpr double kCalibrationReferenceS = 0.1;

/// Median wall time of the calibration kernel run once on each of
/// `threads` threads at the same time.
double host_calibration_s(std::size_t threads);

/// A raw measurement and the calibration taken with it.
struct Normalized {
  double value = 0.0;
  double calibration_s = kCalibrationReferenceS;
};

/// Runs `prepare(i)` for i = 0..repeats-1, each followed by one calibration
/// kernel, and returns the median set-up wall time with the median
/// calibration; `prepare` keeps the state of its last call.
Normalized timed_setup(int repeats, const std::function<void(int)>& prepare);

/// One timed repetition: a pair round, a platoon run, a serve replay
/// repetition or a serve phase at R.
struct Repetition {
  double rate = 0.0;            ///< operations / wall s
  double latency_p50_us = 0.0;  ///< median epoch, session or frame latency
  /// Mean of the calibrations before and after; for the serve replay, the
  /// median of the calibrations run after each of its rounds.
  double calibration_s = 0.0;
  /// What the calibration takes on the reference host. serve-open-loop is
  /// calibrated by a loopback round trip instead of the compute kernel: its
  /// latency is socket and wake-up cost, and the compute kernel widened its
  /// p50 spread across seeds from 4 % to 11 %. The serve replay has a
  /// kernel of its own (see serve_replay.cpp).
  double reference_s = kCalibrationReferenceS;
  /// False for serve-open-loop, whose rate is held by the ladder's schedule.
  bool scale_rate = true;
};

/// The end-to-end metrics, in BENCHMARK.json order: setup_s, then the
/// median over repetitions of normalized throughput and p50 latency, then
/// peak RSS. `tail_sample` supplies the printed (unbounded) p99.
void report_repetitions(Report& report, const Normalized& setup,
                        const std::vector<Repetition>& reps,
                        const Summary& tail_sample);

/// Writes the tracer's spans to options.spans_path (if set).
void write_spans(const Tracer& tracer, const RunOptions& options);

/// Per-layer metrics of layers a workload does not run, reported as 0 so
/// every traced run carries the same metric set.
void report_idle_runtime(Report& report);
void report_idle_serve(Report& report);

}  // namespace perfbench
