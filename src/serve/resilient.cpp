#include "serve/resilient.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "runtime/seed.hpp"
#include "serve/net_util.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Cap on one ::send on the blocking socket, so a full socket buffer can
/// only stall one bounded write instead of the whole remaining trace.
constexpr std::size_t kMaxSendChunk = 16 * 1024;

int remaining_ms(std::uint64_t deadline_abs_ns) {
  const std::uint64_t now = telemetry::now_ns();
  if (now >= deadline_abs_ns) return 0;
  const std::uint64_t ms = (deadline_abs_ns - now) / 1'000'000ULL;
  return ms > 60'000 ? 60'000 : static_cast<int>(ms);
}

/// Outcome of one connection attempt (handshake or streaming phase).
enum class Phase : std::uint8_t {
  kDone,          ///< phase finished; check overall completion
  kDisconnected,  ///< transport cut or retryable STATUS; reconnect + resume
  kOverloaded,    ///< explicit shed; back off, reconnect + resume
  kRestart,       ///< resume rejected; forget the session and start over
  kDeadline,
  kFatalStatus,     ///< non-retryable STATUS (draining)
  kFatalError,      ///< fatal mid-stream ERROR
  kFatalHandshake,  ///< fatal ERROR answering HELLO
  kFatalResume,     ///< fatal ERROR answering RESUME (not unknown/gap)
  kFatalTransport,  ///< protocol violation we must not retry through
};

struct PhaseResult {
  Phase phase = Phase::kDisconnected;
  std::string detail;
  std::int64_t next_step = 0;  ///< handshake only: first step to send
  bool progressed = false;     ///< stream only: accepted >= 1 new estimate
};

/// Blocking frame receive. The connection's decoder is owned by the attempt
/// (not by SessionClient), so bytes the server sends right after RESUME_OK
/// stay in the same buffer the streaming phase drains.
std::optional<Frame> recv_next(int fd, FrameDecoder& decoder,
                               std::uint64_t deadline_abs,
                               std::string& reason) {
  while (true) {
    if (std::optional<Frame> frame = decoder.next(); frame.has_value()) {
      return frame;
    }
    if (decoder.failed()) {
      reason = "decode failed: " + decoder.error();
      return std::nullopt;
    }
    const int timeout = remaining_ms(deadline_abs);
    if (timeout == 0) {
      reason = "timed out waiting for frame";
      return std::nullopt;
    }
    pollfd p{.fd = fd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&p, 1, timeout);
    if (ready <= 0) continue;
    std::uint8_t buffer[16384];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      decoder.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      reason = "connection closed by server";
      return std::nullopt;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    reason = std::string("recv failed: ") + errno_string(errno);
    return std::nullopt;
  }
}

}  // namespace

const char* to_string(StreamFailure failure) {
  switch (failure) {
    case StreamFailure::kNone: return "none";
    case StreamFailure::kConnect: return "connect";
    case StreamFailure::kHandshake: return "handshake";
    case StreamFailure::kResumeRejected: return "resume-rejected";
    case StreamFailure::kDeadline: return "deadline";
    case StreamFailure::kServerStatus: return "server-status";
    case StreamFailure::kServerError: return "server-error";
    case StreamFailure::kTransport: return "transport";
    case StreamFailure::kAttemptsExhausted: return "attempts-exhausted";
  }
  return "?";
}

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 RetryPolicy policy)
    : host_(std::move(host)), port_(port), policy_(policy) {}

ResilientResult ResilientClient::run(const TraceSpec& spec,
                                     const std::string& client_id,
                                     const std::vector<MeasurementFrame>& trace,
                                     std::uint64_t deadline_ns) {
  ResilientResult r;
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  runtime::SplitMix64 jitter_rng(runtime::derive_seed(
      policy_.jitter_seed, runtime::SeedStream::kRetry, 0));
  std::uint64_t backoff = policy_.initial_backoff_ns;
  std::size_t attempts = 0;
  std::int64_t last_challenge_step = -1;
  // First send time per step, kept across reconnects: an estimate the
  // server replays after a RESUME is timed from its frame's first send.
  std::unordered_map<std::int64_t, std::uint64_t> send_ns;
  send_ns.reserve(trace.size());

  const auto last_accepted = [&]() -> std::int64_t {
    return r.estimates.empty() ? -1 : r.estimates.back().step;
  };

  const auto fail = [&](StreamFailure failure, std::string detail) {
    r.failure = failure;
    r.failure_detail = std::move(detail);
  };

  // --- handshake: HELLO for a fresh session, RESUME otherwise --------------
  const auto handshake = [&](SessionClient& client,
                             FrameDecoder& decoder) -> PhaseResult {
    std::string reason;
    const int fd = client.native_handle();
    const bool fresh = r.session_token == 0;
    try {
      if (fresh) {
        client.send_raw(encode(hello_from(spec, client_id)));
      } else {
        client.send_raw(encode(ResumeFrame{.session_token = r.session_token,
                                           .last_step = last_accepted()}));
      }
    } catch (const std::exception& e) {
      return {.phase = Phase::kDisconnected, .detail = e.what()};
    }
    const std::optional<Frame> frame =
        recv_next(fd, decoder, deadline_abs, reason);
    if (!frame.has_value()) {
      return {.phase = telemetry::now_ns() >= deadline_abs
                           ? Phase::kDeadline
                           : Phase::kDisconnected,
              .detail = reason};
    }
    std::string error;
    if (frame->type == FrameType::kStatus) {
      StatusFrame status;
      if (!decode(*frame, status, &error)) {
        return {.phase = Phase::kDisconnected,
                .detail = "bad STATUS reply: " + error};
      }
      if (fresh && status.code == StatusCode::kHelloOk) {
        r.session_token = status.session_token;
        return {.phase = Phase::kDone,
                .detail = {},
                .next_step = last_accepted() + 1};
      }
      if (status.code == StatusCode::kOverloaded) {
        return {.phase = Phase::kOverloaded, .detail = status.message};
      }
      return {.phase = Phase::kFatalStatus,
              .detail =
                  std::string(to_string(status.code)) + ": " + status.message};
    }
    if (frame->type == FrameType::kResumeOk && !fresh) {
      ResumeOkFrame ok;
      if (!decode(*frame, ok, &error)) {
        return {.phase = Phase::kDisconnected,
                .detail = "bad RESUME_OK: " + error};
      }
      ++r.resumes;
      r.replayed_frames += ok.replayed_frames;
      return {.phase = Phase::kDone, .detail = {}, .next_step = ok.next_step};
    }
    if (frame->type == FrameType::kError) {
      ErrorFrame err;
      if (!decode(*frame, err, &error)) {
        return {.phase = Phase::kDisconnected,
                .detail = "bad ERROR reply: " + error};
      }
      const std::string detail =
          std::string(to_string(err.code)) + ": " + err.message;
      if (!fresh && (err.code == ErrorCode::kResumeUnknown ||
                     err.code == ErrorCode::kResumeGap)) {
        return {.phase = Phase::kRestart, .detail = detail};
      }
      return {.phase = fresh ? Phase::kFatalHandshake : Phase::kFatalResume,
              .detail = detail};
    }
    return {.phase = Phase::kDisconnected,
            .detail = std::string("unexpected handshake reply ") +
                      to_string(frame->type)};
  };

  // --- streaming phase -----------------------------------------------------
  // Sends measurements from `first_step` on, interleaving receives through
  // poll(); accepts only the estimate exactly one past the last one held,
  // so replays after a resume are deduplicated and delivery is exactly-once.
  const auto stream_phase = [&](SessionClient& client, FrameDecoder& decoder,
                                std::int64_t first_step) -> PhaseResult {
    PhaseResult out;
    const int fd = client.native_handle();

    std::vector<std::uint8_t> outbuf;
    std::vector<std::size_t> frame_end;
    std::vector<std::int64_t> frame_step;
    const std::size_t start =
        first_step < 0 ? 0
                       : std::min(static_cast<std::size_t>(first_step),
                                  trace.size());
    for (std::size_t i = start; i < trace.size(); ++i) {
      const std::vector<std::uint8_t> bytes = encode(trace[i]);
      outbuf.insert(outbuf.end(), bytes.begin(), bytes.end());
      frame_end.push_back(outbuf.size());
      frame_step.push_back(trace[i].step);
    }
    std::size_t sent = 0;
    std::size_t next_stamp = 0;
    std::size_t accepted_since_ack = 0;

    // Drains every complete frame in the decoder. Returns kDone while the
    // stream should continue; anything else ends the attempt.
    const auto drain = [&]() -> Phase {
      while (true) {
        const std::optional<Frame> frame = decoder.next();
        if (!frame.has_value()) break;
        std::string error;
        switch (frame->type) {
          case FrameType::kEstimate: {
            EstimateFrame estimate;
            if (!decode(*frame, estimate, &error)) {
              out.detail = "bad ESTIMATE: " + error;
              return Phase::kDisconnected;
            }
            const std::int64_t last = last_accepted();
            if (estimate.step <= last) {
              ++r.duplicates_discarded;
              break;
            }
            if (estimate.step != last + 1) {
              out.detail = "estimate step " + std::to_string(estimate.step) +
                           " after step " + std::to_string(last);
              return Phase::kFatalTransport;
            }
            const std::uint64_t now = telemetry::now_ns();
            const auto it = send_ns.find(estimate.step);
            r.latencies_ns.push_back(it == send_ns.end() ? 0
                                                         : now - it->second);
            r.estimates.push_back(estimate);
            r.estimate_frames.push_back(encode(estimate));
            out.progressed = true;
            if (++accepted_since_ack >= policy_.ack_every) {
              accepted_since_ack = 0;
              const std::vector<std::uint8_t> ack =
                  encode(AckFrame{.last_step = estimate.step});
              outbuf.insert(outbuf.end(), ack.begin(), ack.end());
            }
            break;
          }
          case FrameType::kChallengeResult: {
            ChallengeResultFrame challenge;
            if (!decode(*frame, challenge, &error)) {
              out.detail = "bad CHALLENGE_RESULT: " + error;
              return Phase::kDisconnected;
            }
            if (challenge.step > last_challenge_step) {
              last_challenge_step = challenge.step;
              r.challenges.push_back(challenge);
            } else {
              ++r.duplicates_discarded;
            }
            break;
          }
          case FrameType::kStatus: {
            StatusFrame status;
            if (!decode(*frame, status, &error)) {
              out.detail = "bad STATUS: " + error;
              return Phase::kDisconnected;
            }
            out.detail =
                std::string(to_string(status.code)) + ": " + status.message;
            if (status.code == StatusCode::kOverloaded) {
              return Phase::kOverloaded;
            }
            if (status.code == StatusCode::kDraining) {
              return Phase::kFatalStatus;
            }
            // Slow consumer / idle timeout: the connection is gone but the
            // session may be resumable.
            return Phase::kDisconnected;
          }
          case FrameType::kError: {
            ErrorFrame err;
            if (!decode(*frame, err, &error)) {
              out.detail = "bad ERROR: " + error;
              return Phase::kDisconnected;
            }
            out.detail = std::string(to_string(err.code)) + ": " + err.message;
            return Phase::kFatalError;
          }
          default:
            out.detail =
                std::string("unexpected frame ") + to_string(frame->type);
            return Phase::kFatalTransport;
        }
      }
      if (decoder.failed()) {
        // Corrupted bytes (chaos) — tear down and resume on a clean link.
        out.detail = "decode failed: " + decoder.error();
        return Phase::kDisconnected;
      }
      return Phase::kDone;
    };

    while (r.estimates.size() < trace.size()) {
      const Phase drained = drain();
      if (drained != Phase::kDone) {
        out.phase = drained;
        return out;
      }
      if (r.estimates.size() >= trace.size()) break;

      const int timeout = remaining_ms(deadline_abs);
      if (timeout == 0) {
        out.phase = Phase::kDeadline;
        out.detail = "timed out mid-stream";
        return out;
      }
      short events = POLLIN;
      if (sent < outbuf.size()) events = static_cast<short>(events | POLLOUT);
      pollfd p{.fd = fd, .events = events, .revents = 0};
      if (::poll(&p, 1, timeout) <= 0) continue;

      if ((p.revents & POLLOUT) != 0 && sent < outbuf.size()) {
        const std::size_t chunk =
            std::min(outbuf.size() - sent, kMaxSendChunk);
        const ssize_t n =
            ::send(fd, outbuf.data() + sent, chunk, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
          const std::uint64_t now = telemetry::now_ns();
          while (next_stamp < frame_end.size() &&
                 frame_end[next_stamp] <= sent) {
            send_ns.emplace(frame_step[next_stamp], now);
            ++next_stamp;
          }
        } else if (n < 0 && errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          out.phase = Phase::kDisconnected;
          out.detail = std::string("send failed: ") + errno_string(errno);
          return out;
        }
      }
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        std::uint8_t buffer[16384];
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (n > 0) {
          decoder.feed(buffer, static_cast<std::size_t>(n));
        } else if (n == 0) {
          const Phase final_drain = drain();
          if (final_drain != Phase::kDone) {
            out.phase = final_drain;
            return out;
          }
          if (r.estimates.size() >= trace.size()) break;
          out.phase = Phase::kDisconnected;
          out.detail = "connection closed mid-stream";
          return out;
        } else if (errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK) {
          out.phase = Phase::kDisconnected;
          out.detail = std::string("recv failed: ") + errno_string(errno);
          return out;
        }
      }
    }
    out.phase = Phase::kDone;
    return out;
  };

  // --- retry loop ----------------------------------------------------------
  while (true) {
    if (r.estimates.size() == trace.size()) {
      r.complete = true;
      r.failure = StreamFailure::kNone;
      r.failure_detail.clear();
      break;
    }
    if (telemetry::now_ns() >= deadline_abs) {
      if (r.failure == StreamFailure::kNone) {
        fail(StreamFailure::kDeadline, "deadline expired");
      } else {
        r.failure = StreamFailure::kDeadline;
      }
      break;
    }
    if (attempts >= policy_.max_attempts) {
      fail(StreamFailure::kAttemptsExhausted,
           "retry budget spent after " + std::to_string(attempts) +
               " attempts (last: " + std::string(to_string(r.failure)) +
               (r.failure_detail.empty() ? "" : ", " + r.failure_detail) +
               ")");
      break;
    }
    if (attempts > 0) {
      const std::uint64_t jitter = static_cast<std::uint64_t>(
          runtime::uniform_double(jitter_rng) * static_cast<double>(backoff) *
          0.5);
      std::uint64_t sleep_ns = backoff + jitter;
      const std::uint64_t now = telemetry::now_ns();
      if (now + sleep_ns > deadline_abs) sleep_ns = deadline_abs - now;
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
      backoff = std::min(static_cast<std::uint64_t>(
                             static_cast<double>(backoff) * policy_.multiplier),
                         policy_.max_backoff_ns);
    }
    ++attempts;

    SessionClient client;
    try {
      client.connect(host_, port_);
    } catch (const std::exception& e) {
      fail(StreamFailure::kConnect, e.what());
      continue;
    }
    ++r.connects;
    if (r.connects > 1) ++r.reconnects;

    FrameDecoder decoder;
    const PhaseResult hs = handshake(client, decoder);
    bool fatal = false;
    switch (hs.phase) {
      case Phase::kDone:
        break;
      case Phase::kOverloaded:
        ++r.overload_backoffs;
        fail(StreamFailure::kTransport, "shed: " + hs.detail);
        continue;
      case Phase::kRestart:
        ++r.restarts;
        r.session_token = 0;
        r.estimates.clear();
        r.estimate_frames.clear();
        r.challenges.clear();
        r.latencies_ns.clear();
        send_ns.clear();
        last_challenge_step = -1;
        fail(StreamFailure::kTransport, "restart: " + hs.detail);
        continue;
      case Phase::kDisconnected:
        fail(StreamFailure::kTransport, hs.detail);
        continue;
      case Phase::kDeadline:
        fail(StreamFailure::kDeadline, hs.detail);
        fatal = true;
        break;
      case Phase::kFatalStatus:
        fail(StreamFailure::kServerStatus, hs.detail);
        fatal = true;
        break;
      case Phase::kFatalHandshake:
        fail(StreamFailure::kHandshake, hs.detail);
        fatal = true;
        break;
      case Phase::kFatalResume:
        fail(StreamFailure::kResumeRejected, hs.detail);
        fatal = true;
        break;
      default:
        fail(StreamFailure::kTransport, hs.detail);
        fatal = true;
        break;
    }
    if (fatal) break;

    const PhaseResult sp = stream_phase(client, decoder, hs.next_step);
    if (sp.progressed) backoff = policy_.initial_backoff_ns;
    if (sp.phase == Phase::kDone) {
      // Final ACK releases the server's replay buffer, so a fully delivered
      // session is destroyed on close instead of lingering in the resumable
      // cache for the grace window. Best-effort: losing it only delays the
      // server-side cleanup.
      if (r.estimates.size() == trace.size() && !r.estimates.empty()) {
        try {
          client.send_raw(encode(AckFrame{.last_step = r.estimates.back().step}));
        } catch (...) {
        }
      }
      continue;
    }
    if (sp.phase == Phase::kOverloaded) {
      ++r.overload_backoffs;
      fail(StreamFailure::kTransport, "shed: " + sp.detail);
      continue;
    }
    if (sp.phase == Phase::kDisconnected) {
      fail(StreamFailure::kTransport, sp.detail);
      continue;
    }
    if (sp.phase == Phase::kDeadline) {
      fail(StreamFailure::kDeadline, sp.detail);
    } else if (sp.phase == Phase::kFatalStatus) {
      fail(StreamFailure::kServerStatus, sp.detail);
    } else if (sp.phase == Phase::kFatalError) {
      fail(StreamFailure::kServerError, sp.detail);
    } else {
      fail(StreamFailure::kTransport, sp.detail);
    }
    break;
  }
  return r;
}

}  // namespace safe::serve
