// Sample statistics, naming rules and the open-loop schedule shared by every
// workload of the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `q` (0 < q <= 100) of an ascending sample.
/// Returns 0 for an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of 50, 90, 99, 99.9 and 99.99 that still has at least ten
/// samples beyond it, or 0 when even the median has fewer. A tail
/// percentile is only reported when this rule supports it.
double highest_supported_percentile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double total = 0.0;
  double tail_q = 0.0;  ///< highest_supported_percentile(n)
};

Summary summarize(std::vector<double> samples);

/// Median over consecutive windows of `window` samples (in the order
/// given; a short final window is dropped) of each window's p99. A host
/// stall lands in few windows, so this tail figure stays steady where the
/// p99 of the pooled sample jumps. Each window must support a p99, so
/// `window` must leave at least ten samples beyond it. Returns 0 when no
/// full window exists.
double windowed_p99(const std::vector<double>& samples, std::size_t window);

/// Median of a sample (upper median for an even count is not used: the
/// mean of the two middle values is returned).
double median(std::vector<double> samples);

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Units: 1..16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

/// Fixed-rate send schedule of an open-loop generator: frame i is due at
/// start + i * period, whether or not earlier frames were answered. Every
/// latency is measured from the due time, so a stall that delays later
/// sends is charged to each frame it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s);

  [[nodiscard]] std::int64_t due_ns(std::uint64_t index) const;
  /// arrival - due(index); the frame's latency as its sender sees it.
  [[nodiscard]] std::int64_t latency_ns(std::uint64_t index,
                                        std::int64_t arrival_ns) const;
  [[nodiscard]] double period_ns() const { return period_ns_; }

 private:
  std::int64_t start_ns_;
  double period_ns_;
};

/// 64-bit FNV-1a, chainable through `state`.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state = 0xcbf29ce484222325ULL);

}  // namespace perfbench
