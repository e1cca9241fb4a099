#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

/// Smallest rank r with r / n >= q / 100, as a 0-based index. The epsilon
/// keeps q = 99.9, n = 10000 at rank 9990 despite 99.9 / 100 rounding up.
std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(idx, n - 1);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - nearest_rank_index(n, q);
}

double highest_supported_percentile(std::size_t n) {
  for (const double q : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.p99 = percentile_sorted(samples, 99.0);
  s.total = std::accumulate(samples.begin(), samples.end(), 0.0);
  s.tail_q = highest_supported_percentile(s.n);
  return s;
}

double windowed_p99(const std::vector<double>& samples, std::size_t window) {
  if (samples_beyond(window, 99.0) < 10) {
    throw std::invalid_argument("windowed_p99: window too small for a p99");
  }
  std::vector<double> p99s;
  for (std::size_t start = 0; start + window <= samples.size();
       start += window) {
    std::vector<double> w(samples.begin() + static_cast<std::ptrdiff_t>(start),
                          samples.begin() +
                              static_cast<std::ptrdiff_t>(start + window));
    std::sort(w.begin(), w.end());
    p99s.push_back(percentile_sorted(w, 99.0));
  }
  return median(std::move(p99s));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

OpenLoopSchedule::OpenLoopSchedule(std::int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), period_ns_(0.0) {
  if (!(rate_per_s > 0.0)) {
    throw std::invalid_argument("OpenLoopSchedule: rate must be > 0");
  }
  period_ns_ = 1e9 / rate_per_s;
}

std::int64_t OpenLoopSchedule::due_ns(std::uint64_t index) const {
  return start_ns_ +
         static_cast<std::int64_t>(std::llround(static_cast<double>(index) *
                                                period_ns_));
}

std::int64_t OpenLoopSchedule::latency_ns(std::uint64_t index,
                                          std::int64_t arrival_ns) const {
  return arrival_ns - due_ns(index);
}

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace perfbench
