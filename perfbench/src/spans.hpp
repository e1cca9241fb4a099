// In-memory span recorder for the traced runs, and the result record every
// workload fills.
//
// Spans are recorded by the benchmark around its own calls into the
// program's layers (nothing inside src/ is instrumented): name, start, end,
// the span that caused it, and the request (trial, run or session) it
// belongs to. They stay in memory and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Interns a span name; call once per name at set-up.
  std::uint32_t name(const std::string& text);

  /// Starts a span; returns its id (ids start at 1).
  std::uint64_t begin(std::uint32_t name, std::uint64_t parent);
  void end(std::uint64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name, std::uint64_t parent)
        : tracer_(tracer), id_(tracer.begin(name, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

  void set_request(std::uint64_t request) { request_ = request; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(std::uint64_t id) const {
    return spans_[id - 1];
  }

  /// Durations in microseconds of every span named `name`.
  [[nodiscard]] std::vector<double> durations_us(std::uint32_t name) const;

  /// Writes `id,parent,request,name,start_ns,end_ns` rows.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint64_t request_ = 0;
};

/// What one run reports: metrics, the outcome counts, output checks and
/// free-form facts for the human-readable report.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string attempted_base;  ///< what one attempted operation is
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> facts;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a p50/p99 pair as `<stem>_p50_<unit>` / `<stem>_p99_<unit>`.
  void distribution(const std::string& stem, const Summary& s,
                    const std::string& unit);
  void fact(const std::string& key, const std::string& value);
  /// Records a failed output check when `ok` is false.
  bool check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failures.empty(); }

  /// The run's result as one JSON object (metrics, counts, checks, facts).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace perfbench
