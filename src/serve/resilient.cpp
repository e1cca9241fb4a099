#include "serve/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/seed.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Backoff growth per failed attempt.
constexpr std::uint64_t kBackoffMultiplier = 2;

/// "<code>: <message>" for a STATUS or ERROR reply.
template <typename Code>
std::string describe(Code code, const std::string& message) {
  return std::string(to_string(code)) + ": " + message;
}

}  // namespace

const char* to_string(StreamFailure failure) {
  switch (failure) {
    case StreamFailure::kNone: return "none";
    case StreamFailure::kConnect: return "connect";
    case StreamFailure::kHandshake: return "handshake";
    case StreamFailure::kResumeRejected: return "resume-rejected";
    case StreamFailure::kOverloaded: return "overloaded";
    case StreamFailure::kDeadline: return "deadline";
    case StreamFailure::kServerStatus: return "server-status";
    case StreamFailure::kServerError: return "server-error";
    case StreamFailure::kTransport: return "transport";
  }
  return "?";
}

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 RetryPolicy policy)
    : host_(std::move(host)), port_(port), policy_(policy) {
  if (policy_.max_attempts == 0) {
    throw std::invalid_argument("retry policy needs >= 1 attempt");
  }
}

ResilientResult ResilientClient::run(const TraceSpec& spec,
                                     const std::string& client_id,
                                     const std::vector<MeasurementFrame>& trace,
                                     std::uint64_t deadline_ns) {
  ResilientResult r;
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  const auto remaining = [deadline_abs]() -> std::uint64_t {
    const std::uint64_t now = telemetry::now_ns();
    return now >= deadline_abs ? 0 : deadline_abs - now;
  };
  runtime::SplitMix64 jitter_rng(runtime::derive_seed(
      policy_.jitter_seed, runtime::SeedStream::kRetry, 0));
  std::uint64_t backoff = policy_.initial_backoff_ns;

  const auto fail = [&r](StreamFailure failure, std::string detail) {
    r.failure = failure;
    r.failure_detail = std::move(detail);
  };
  const auto shed = [&](const std::string& detail) {
    ++r.overload_backoffs;
    fail(StreamFailure::kOverloaded, "shed: " + detail);
  };

  for (std::size_t attempt = 0;; ++attempt) {
    if (r.estimates.size() == trace.size()) {
      r.complete = true;
      fail(StreamFailure::kNone, {});
      break;
    }
    if (remaining() == 0) {
      if (r.failure == StreamFailure::kNone) {
        r.failure_detail = "deadline expired";
      }
      r.failure = StreamFailure::kDeadline;
      break;
    }
    if (attempt == policy_.max_attempts) {
      if (attempt > 1) {
        r.failure_detail = "after " + std::to_string(attempt) +
                           " attempts: " + r.failure_detail;
      }
      break;
    }
    if (attempt > 0) {
      const std::uint64_t jitter = static_cast<std::uint64_t>(
          runtime::uniform_double(jitter_rng) * static_cast<double>(backoff) *
          0.5);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(backoff + jitter, remaining())));
      backoff = std::min(backoff * kBackoffMultiplier, policy_.max_backoff_ns);
    }

    SessionClient client;
    try {
      client.connect(host_, port_);
    } catch (const std::exception& e) {
      fail(StreamFailure::kConnect, e.what());
      continue;
    }
    ++r.connects;
    if (r.connects > 1) ++r.reconnects;

    // Handshake: HELLO opens a fresh session, RESUME continues the held
    // one. A handshake cut short is retried (the deadline check above turns
    // a timed-out one into kDeadline).
    std::size_t from = 0;
    if (r.session_token == 0) {
      const SessionClient::OpenReply open =
          client.open_session(hello_from(spec, client_id), remaining());
      if (!open.transport_error.empty()) {
        fail(StreamFailure::kTransport, open.transport_error);
        continue;
      }
      if (open.has_error) {
        fail(StreamFailure::kHandshake,
             describe(open.error.code, open.error.message));
        break;
      }
      if (!open.ok) {
        const std::string detail =
            describe(open.status.code, open.status.message);
        if (open.status.code == StatusCode::kOverloaded) {
          shed(detail);
          continue;
        }
        fail(StreamFailure::kServerStatus, detail);
        break;
      }
      r.session_token = open.status.session_token;
    } else {
      std::optional<Frame> reply;
      try {
        client.send_raw(encode(ResumeFrame{.session_token = r.session_token,
                                           .last_step = r.last_step}));
        reply = client.recv_frame(remaining());
      } catch (const std::exception& e) {
        fail(StreamFailure::kTransport, e.what());
        continue;
      }
      if (!reply.has_value()) {
        fail(StreamFailure::kTransport, client.reason());
        continue;
      }
      std::string error;
      ResumeOkFrame ok;
      StatusFrame status;
      ErrorFrame err;
      if (reply->type == FrameType::kResumeOk && decode(*reply, ok, &error)) {
        ++r.resumes;
        r.replayed_frames += ok.replayed_frames;
        from = static_cast<std::size_t>(
            std::max<std::int64_t>(ok.next_step, 0));
      } else if (reply->type == FrameType::kStatus &&
                 decode(*reply, status, &error)) {
        const std::string detail = describe(status.code, status.message);
        if (status.code == StatusCode::kOverloaded) {
          shed(detail);
          continue;
        }
        fail(StreamFailure::kServerStatus, detail);
        break;
      } else if (reply->type == FrameType::kError &&
                 decode(*reply, err, &error)) {
        const std::string detail = describe(err.code, err.message);
        if (err.code != ErrorCode::kResumeUnknown &&
            err.code != ErrorCode::kResumeGap) {
          fail(StreamFailure::kResumeRejected, detail);
          break;
        }
        // The server lost the session: start over with a fresh one.
        ++r.restarts;
        static_cast<SessionClient::StreamResult&>(r) = {};
        r.session_token = 0;
        fail(StreamFailure::kTransport, "restart: " + detail);
        continue;
      } else {
        fail(StreamFailure::kTransport,
             std::string("bad handshake reply ") + to_string(reply->type) +
                 (error.empty() ? "" : ": " + error));
        continue;
      }
    }

    const std::size_t held = r.estimates.size();
    const StreamEnd end = client.stream(trace, from, r, remaining());
    if (r.estimates.size() > held) backoff = policy_.initial_backoff_ns;
    switch (end) {
      case StreamEnd::kComplete:
        // The final ACK releases the server's replay buffer, so a fully
        // delivered session is destroyed on close instead of lingering in
        // the resumable cache for the grace window. Best-effort: losing it
        // only delays the server-side cleanup.
        if (!r.estimates.empty()) {
          try {
            client.send_raw(encode(AckFrame{.last_step = r.last_step}));
          } catch (const std::exception&) {
          }
        }
        continue;
      case StreamEnd::kCut:
        fail(StreamFailure::kTransport, r.detail);
        continue;
      case StreamEnd::kOverloaded:
        shed(r.detail);
        continue;
      case StreamEnd::kDeadline:
        fail(StreamFailure::kDeadline, r.detail);
        break;
      case StreamEnd::kDraining:
        fail(StreamFailure::kServerStatus, r.detail);
        break;
      case StreamEnd::kServerError:
        fail(StreamFailure::kServerError, r.detail);
        break;
      case StreamEnd::kProtocol:
        fail(StreamFailure::kTransport, r.detail);
        break;
    }
    break;
  }
  return r;
}

}  // namespace safe::serve
