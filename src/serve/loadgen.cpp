#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runtime/seed.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(pos + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

SessionErrorKind classify(StreamFailure failure) {
  switch (failure) {
    case StreamFailure::kConnect: return SessionErrorKind::kConnectRefused;
    case StreamFailure::kHandshake:
    case StreamFailure::kResumeRejected:
      return SessionErrorKind::kHandshakeRejected;
    case StreamFailure::kOverloaded: return SessionErrorKind::kOverloaded;
    case StreamFailure::kDeadline: return SessionErrorKind::kDeadlineExceeded;
    case StreamFailure::kServerStatus: return SessionErrorKind::kServerStatus;
    case StreamFailure::kServerError: return SessionErrorKind::kServerError;
    case StreamFailure::kNone:
    case StreamFailure::kTransport: break;
  }
  return SessionErrorKind::kTransport;
}

/// The offline reference for a trace, encoded as the server would send it.
std::vector<std::vector<std::uint8_t>> encoded_reference(
    const TraceSpec& spec, const std::vector<MeasurementFrame>& trace) {
  std::vector<std::vector<std::uint8_t>> reference;
  for (const EstimateFrame& frame : run_offline(spec, trace)) {
    reference.push_back(encode(frame));
  }
  return reference;
}

/// Byte-compares received estimate frames against the encoded offline
/// reference. Returns the mismatch count (0 = verified).
std::uint64_t count_mismatches(
    const std::vector<std::vector<std::uint8_t>>& reference,
    const std::vector<std::vector<std::uint8_t>>& estimate_frames) {
  if (reference.size() != estimate_frames.size()) {
    return reference.size() > estimate_frames.size()
               ? reference.size() - estimate_frames.size()
               : estimate_frames.size() - reference.size();
  }
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] != estimate_frames[i]) ++mismatches;
  }
  return mismatches;
}

/// Runs body(index) for every index below `count` on `workers` threads,
/// each thread taking the next unclaimed index.
template <typename Body>
void for_each_index(std::size_t workers, std::size_t count, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
           index < count;
           index = next.fetch_add(1, std::memory_order_relaxed)) {
        body(index);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

const char* to_string(SessionErrorKind kind) {
  switch (kind) {
    case SessionErrorKind::kConnectRefused: return "connect-refused";
    case SessionErrorKind::kHandshakeRejected: return "handshake-rejected";
    case SessionErrorKind::kOverloaded: return "overloaded";
    case SessionErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case SessionErrorKind::kVerifyMismatch: return "verify-mismatch";
    case SessionErrorKind::kTransport: return "transport";
    case SessionErrorKind::kServerError: return "server-error";
    case SessionErrorKind::kServerStatus: return "server-status";
    case SessionErrorKind::kTraceGeneration: return "trace-generation";
  }
  return "?";
}

LoadReport run_load(const LoadOptions& options) {
  if (options.sessions == 0 || options.connections == 0 ||
      options.retry.max_attempts == 0) {
    throw std::invalid_argument(
        "loadgen needs >=1 session, connection and attempt");
  }
  if (options.port == 0) {
    throw std::invalid_argument("loadgen needs an explicit port");
  }

  LoadReport report;
  report.sessions_attempted = options.sessions;

  std::mutex merge_mutex;
  std::vector<std::uint64_t> all_latencies;
  const std::size_t workers = std::min(options.connections, options.sessions);

  // Counts the failure under its kind; `failed` distinguishes a failed
  // session from a completed-but-mismatched one (which ok() still rejects).
  const auto record_error = [&](std::size_t index, SessionErrorKind kind,
                                std::string detail, bool failed = true) {
    std::lock_guard<std::mutex> guard(merge_mutex);
    if (failed) ++report.sessions_failed;
    ++report.error_counts[static_cast<std::size_t>(kind)];
    if (report.session_errors.size() < 16) {
      report.session_errors.push_back(SessionError{
          .session = index, .kind = kind, .detail = std::move(detail)});
    }
  };

  // Each session's trace and, with verify, its offline reference are made
  // before the clock starts, so the timed window holds only served traffic.
  struct PreparedSession {
    TraceSpec spec;
    std::vector<MeasurementFrame> trace;
    std::vector<std::vector<std::uint8_t>> reference;
    bool ready = false;
  };
  std::vector<PreparedSession> prepared(options.sessions);
  for_each_index(workers, options.sessions, [&](std::size_t index) {
    PreparedSession& session = prepared[index];
    session.spec = options.spec;
    session.spec.seed = runtime::derive_seed(
        options.master_seed, runtime::SeedStream::kScenario,
        static_cast<std::uint64_t>(index));
    try {
      session.trace = make_measurement_trace(session.spec);
    } catch (const std::exception& e) {
      record_error(index, SessionErrorKind::kTraceGeneration, e.what());
      return;
    }
    if (options.verify) {
      session.reference = encoded_reference(session.spec, session.trace);
    }
    session.ready = true;
  });

  const std::uint64_t start_ns = telemetry::now_ns();
  for_each_index(workers, options.sessions, [&](std::size_t index) {
    const PreparedSession& session = prepared[index];
    if (!session.ready) return;
    RetryPolicy policy = options.retry;
    policy.jitter_seed = runtime::derive_seed(
        options.master_seed, runtime::SeedStream::kRetry,
        static_cast<std::uint64_t>(index));
    const ResilientResult result =
        ResilientClient(options.host, options.port, policy)
            .run(session.spec, "loadgen-" + std::to_string(index),
                 session.trace, options.deadline_ns);

    std::uint64_t mismatches = 0;
    if (options.verify && result.complete) {
      mismatches = count_mismatches(session.reference, result.estimate_frames);
    }
    {
      std::lock_guard<std::mutex> guard(merge_mutex);
      report.frames_sent += session.trace.size();
      report.estimates_received += result.estimates.size();
      report.challenges_received += result.challenges.size();
      report.verify_mismatched_frames += mismatches;
      if (options.verify && result.complete && mismatches == 0) {
        ++report.sessions_verified;
      }
      if (result.complete) ++report.sessions_completed;
      report.reconnects += result.reconnects;
      report.resumes += result.resumes;
      report.restarts += result.restarts;
      report.overload_backoffs += result.overload_backoffs;
      report.duplicates_discarded += result.duplicates_discarded;
      report.replayed_frames += result.replayed_frames;
      all_latencies.insert(all_latencies.end(), result.latencies_ns.begin(),
                           result.latencies_ns.end());
    }
    if (!result.complete) {
      record_error(index, classify(result.failure),
                   std::string(to_string(result.failure)) +
                       (result.failure_detail.empty()
                            ? ""
                            : ": " + result.failure_detail));
    } else if (mismatches != 0) {
      record_error(index, SessionErrorKind::kVerifyMismatch,
                   std::to_string(mismatches) +
                       " estimate frames differ from offline reference",
                   /*failed=*/false);
    }
  });
  report.elapsed_ns = telemetry::now_ns() - start_ns;

  std::sort(all_latencies.begin(), all_latencies.end());
  report.latency_p50_ns = percentile(all_latencies, 0.50);
  report.latency_p95_ns = percentile(all_latencies, 0.95);
  report.latency_p99_ns = percentile(all_latencies, 0.99);
  report.latency_max_ns =
      all_latencies.empty() ? 0 : all_latencies.back();
  if (report.elapsed_ns > 0) {
    report.throughput_frames_per_s =
        static_cast<double>(report.estimates_received) * 1e9 /
        static_cast<double>(report.elapsed_ns);
  }
  return report;
}

std::string to_json(const LoadReport& report) {
  const auto escape = [](std::ostringstream& out, const std::string& text) {
    out << "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out << '\\' << c;
      } else if (c == '\n') {
        out << "\\n";
      } else {
        out << c;
      }
    }
    out << "\"";
  };

  std::ostringstream out;
  out << "{";
  out << "\"sessions_attempted\":" << report.sessions_attempted;
  out << ",\"sessions_completed\":" << report.sessions_completed;
  out << ",\"sessions_failed\":" << report.sessions_failed;
  out << ",\"frames_sent\":" << report.frames_sent;
  out << ",\"estimates_received\":" << report.estimates_received;
  out << ",\"challenges_received\":" << report.challenges_received;
  out << ",\"sessions_verified\":" << report.sessions_verified;
  out << ",\"verify_mismatched_frames\":" << report.verify_mismatched_frames;
  out << ",\"elapsed_ns\":" << report.elapsed_ns;
  out << ",\"throughput_frames_per_s\":" << report.throughput_frames_per_s;
  out << ",\"latency_p50_ns\":" << report.latency_p50_ns;
  out << ",\"latency_p95_ns\":" << report.latency_p95_ns;
  out << ",\"latency_p99_ns\":" << report.latency_p99_ns;
  out << ",\"latency_max_ns\":" << report.latency_max_ns;
  out << ",\"reconnects\":" << report.reconnects;
  out << ",\"resumes\":" << report.resumes;
  out << ",\"restarts\":" << report.restarts;
  out << ",\"overload_backoffs\":" << report.overload_backoffs;
  out << ",\"duplicates_discarded\":" << report.duplicates_discarded;
  out << ",\"replayed_frames\":" << report.replayed_frames;
  out << ",\"ok\":" << (report.ok() ? "true" : "false");
  out << ",\"error_counts\":{";
  bool first = true;
  for (std::size_t k = 0; k < kSessionErrorKindCount; ++k) {
    if (report.error_counts[k] == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << to_string(static_cast<SessionErrorKind>(k))
        << "\":" << report.error_counts[k];
  }
  out << "}";
  out << ",\"session_errors\":[";
  for (std::size_t i = 0; i < report.session_errors.size(); ++i) {
    if (i > 0) out << ",";
    const SessionError& error = report.session_errors[i];
    out << "{\"session\":" << error.session << ",\"kind\":\""
        << to_string(error.kind) << "\",\"detail\":";
    escape(out, error.detail);
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace safe::serve
