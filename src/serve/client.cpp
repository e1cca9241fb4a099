#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/net_util.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

int poll_one(int fd, short events, int timeout_ms) {
  pollfd p{.fd = fd, .events = events, .revents = 0};
  return ::poll(&p, 1, timeout_ms) > 0 ? p.revents : 0;
}

/// ACK cadence: acknowledge every N accepted estimates so the server can
/// trim its replay buffer.
constexpr std::size_t kAckEvery = 32;

/// Cap on one ::send on the blocking socket, so a full socket buffer can
/// only stall one bounded write instead of the whole remaining trace.
constexpr std::size_t kMaxSendChunk = 16 * 1024;

bool transient(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

int remaining_ms(std::uint64_t deadline_abs_ns) {
  const std::uint64_t now = telemetry::now_ns();
  if (now >= deadline_abs_ns) return 0;
  const std::uint64_t ms = (deadline_abs_ns - now) / 1'000'000ULL;
  return ms > 60'000 ? 60'000 : static_cast<int>(ms);
}

}  // namespace

SessionClient::~SessionClient() { close(); }

void SessionClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SessionClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             errno_string(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string what = errno_string(errno);
    close();
    throw std::runtime_error("connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + what);
  }
  set_tcp_nodelay(fd_);
  decoder_ = FrameDecoder{};
  reason_.clear();
}

bool SessionClient::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    reason_ = std::string("send failed: ") + errno_string(errno);
    return false;
  }
  return true;
}

void SessionClient::send_raw(const std::vector<std::uint8_t>& bytes) {
  if (fd_ < 0) throw std::runtime_error("send_raw on closed client");
  if (!send_all(bytes.data(), bytes.size())) {
    throw std::runtime_error(reason_);
  }
}

std::optional<Frame> SessionClient::recv_frame(std::uint64_t deadline_ns) {
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  while (true) {
    if (std::optional<Frame> frame = decoder_.next(); frame.has_value()) {
      return frame;
    }
    if (decoder_.failed()) {
      reason_ = "decode failed: " + decoder_.error();
      return std::nullopt;
    }
    const int timeout = remaining_ms(deadline_abs);
    if (timeout == 0) {
      reason_ = "timed out waiting for frame";
      return std::nullopt;
    }
    const int revents = poll_one(fd_, POLLIN, timeout);
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    std::uint8_t buffer[16384];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      decoder_.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      reason_ = "connection closed by server";
      return std::nullopt;
    }
    if (transient(errno)) continue;
    reason_ = std::string("recv failed: ") + errno_string(errno);
    return std::nullopt;
  }
}

SessionClient::OpenReply SessionClient::open_session(
    const HelloFrame& hello, std::uint64_t deadline_ns) {
  OpenReply reply;
  if (fd_ < 0) {
    reply.transport_error = "open_session on closed client";
    return reply;
  }
  const std::vector<std::uint8_t> bytes = encode(hello);
  if (!send_all(bytes.data(), bytes.size())) {
    reply.transport_error = reason_;
    return reply;
  }
  const std::optional<Frame> frame = recv_frame(deadline_ns);
  if (!frame.has_value()) {
    reply.transport_error = reason_;
    return reply;
  }
  std::string error;
  if (frame->type == FrameType::kStatus) {
    if (!decode(*frame, reply.status, &error)) {
      reply.transport_error = "bad STATUS reply: " + error;
      return reply;
    }
    reply.ok = reply.status.code == StatusCode::kHelloOk;
    return reply;
  }
  if (frame->type == FrameType::kError) {
    if (!decode(*frame, reply.error, &error)) {
      reply.transport_error = "bad ERROR reply: " + error;
      return reply;
    }
    reply.has_error = true;
    return reply;
  }
  reply.transport_error =
      std::string("unexpected handshake frame ") + to_string(frame->type);
  return reply;
}

StreamEnd SessionClient::stream(const std::vector<MeasurementFrame>& trace,
                                std::size_t from, StreamResult& into,
                                std::uint64_t deadline_ns) {
  const auto end = [&into](StreamEnd how, std::string detail) {
    into.complete = how == StreamEnd::kComplete;
    into.detail = std::move(detail);
    return how;
  };
  if (fd_ < 0) return end(StreamEnd::kCut, "stream on closed client");
  const std::int64_t final_step =
      trace.empty() ? into.last_step : trace.back().step;

  // Pre-encode the rest of the trace into one buffer and remember where each
  // frame ends, so a frame's send timestamp is taken when its final byte
  // leaves the socket. ACKs are appended behind it as estimates arrive.
  std::vector<std::uint8_t> out;
  std::vector<std::size_t> frame_end;
  for (std::size_t i = from; i < trace.size(); ++i) {
    const std::vector<std::uint8_t> bytes = encode(trace[i]);
    out.insert(out.end(), bytes.begin(), bytes.end());
    frame_end.push_back(out.size());
  }
  std::size_t sent = 0;
  std::size_t stamped = 0;
  std::size_t since_ack = 0;
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;

  // Takes every complete frame off the decoder; nullopt while the stream
  // goes on.
  const auto drain = [&]() -> std::optional<StreamEnd> {
    for (std::optional<Frame> frame = decoder_.next(); frame.has_value();
         frame = decoder_.next()) {
      std::string error;
      switch (frame->type) {
        case FrameType::kEstimate: {
          EstimateFrame estimate;
          if (!decode(*frame, estimate, &error)) {
            return end(StreamEnd::kCut, "bad ESTIMATE: " + error);
          }
          if (estimate.step <= into.last_step) {
            ++into.duplicates_discarded;
            break;
          }
          if (estimate.step != into.last_step + 1) {
            return end(StreamEnd::kProtocol,
                       "estimate step " + std::to_string(estimate.step) +
                           " after step " + std::to_string(into.last_step));
          }
          const auto sent_at = into.first_send_ns.find(estimate.step);
          into.latencies_ns.push_back(sent_at == into.first_send_ns.end()
                                          ? 0
                                          : telemetry::now_ns() -
                                                sent_at->second);
          into.estimates.push_back(estimate);
          into.estimate_frames.push_back(encode(estimate));
          into.last_step = estimate.step;
          if (++since_ack == kAckEvery) {
            since_ack = 0;
            const std::vector<std::uint8_t> ack =
                encode(AckFrame{.last_step = estimate.step});
            out.insert(out.end(), ack.begin(), ack.end());
          }
          break;
        }
        case FrameType::kChallengeResult: {
          ChallengeResultFrame challenge;
          if (!decode(*frame, challenge, &error)) {
            return end(StreamEnd::kCut, "bad CHALLENGE_RESULT: " + error);
          }
          if (into.challenges.empty() ||
              challenge.step > into.challenges.back().step) {
            into.challenges.push_back(challenge);
          } else {
            ++into.duplicates_discarded;
          }
          break;
        }
        case FrameType::kStatus: {
          StatusFrame status;
          if (!decode(*frame, status, &error)) {
            return end(StreamEnd::kCut, "bad STATUS: " + error);
          }
          // Slow consumer / idle timeout: the connection is gone but the
          // session may be resumable.
          const StreamEnd how =
              status.code == StatusCode::kOverloaded ? StreamEnd::kOverloaded
              : status.code == StatusCode::kDraining ? StreamEnd::kDraining
                                                     : StreamEnd::kCut;
          return end(how, std::string(to_string(status.code)) + ": " +
                              status.message);
        }
        case FrameType::kError: {
          ErrorFrame err;
          if (!decode(*frame, err, &error)) {
            return end(StreamEnd::kCut, "bad ERROR: " + error);
          }
          return end(StreamEnd::kServerError,
                     std::string(to_string(err.code)) + ": " + err.message);
        }
        default:
          return end(StreamEnd::kProtocol,
                     std::string("unexpected frame ") + to_string(frame->type));
      }
    }
    if (decoder_.failed()) {
      // Corrupted bytes (chaos): a clean link may resume.
      return end(StreamEnd::kCut, "decode failed: " + decoder_.error());
    }
    return std::nullopt;
  };

  while (into.last_step < final_step) {
    if (const std::optional<StreamEnd> ended = drain()) return *ended;
    if (into.last_step >= final_step) break;

    const int timeout = remaining_ms(deadline_abs);
    if (timeout == 0) return end(StreamEnd::kDeadline, "timed out mid-stream");
    short events = POLLIN;
    if (sent < out.size()) events = static_cast<short>(events | POLLOUT);
    const int revents = poll_one(fd_, events, timeout);

    if ((revents & POLLOUT) != 0 && sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent,
                               std::min(out.size() - sent, kMaxSendChunk),
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        const std::uint64_t now = telemetry::now_ns();
        for (; stamped < frame_end.size() && frame_end[stamped] <= sent;
             ++stamped) {
          into.first_send_ns.emplace(trace[from + stamped].step, now);
        }
      } else if (n < 0 && !transient(errno)) {
        return end(StreamEnd::kCut,
                   std::string("send failed: ") + errno_string(errno));
      }
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      std::uint8_t buffer[16384];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.feed(buffer, static_cast<std::size_t>(n));
      } else if (n == 0) {
        if (const std::optional<StreamEnd> ended = drain()) return *ended;
        if (into.last_step >= final_step) break;
        return end(StreamEnd::kCut, "connection closed mid-stream");
      } else if (!transient(errno)) {
        return end(StreamEnd::kCut,
                   std::string("recv failed: ") + errno_string(errno));
      }
    }
  }
  // Finish a partly sent ACK, so the caller may send further frames.
  // Best-effort: a lost ACK only delays the server's cleanup.
  (void)send_all(out.data() + sent, out.size() - sent);
  return end(StreamEnd::kComplete, {});
}

SessionClient::StreamResult SessionClient::stream(
    const std::vector<MeasurementFrame>& measurements,
    std::uint64_t deadline_ns) {
  StreamResult result;
  if (!measurements.empty()) result.last_step = measurements.front().step - 1;
  (void)stream(measurements, 0, result, deadline_ns);
  return result;
}

}  // namespace safe::serve
