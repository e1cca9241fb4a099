// The client for the streaming session protocol (DESIGN.md §12, §13).
//
// SessionClient is the one connection type: the load generator, the
// resilient client, the loopback tests and the serving throughput ablation
// all reach the server through it. stream() is the one streaming loop. It
// interleaves sends and receives through poll() and never writes the whole
// trace before reading, because the server's outbound backpressure would
// (correctly) disconnect a peer that streams without draining its replies.
// It also continues a resumed session: an estimate the server replays at or
// below the last accepted step is discarded, and an ACK after every 32
// accepted estimates lets the server trim its replay buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/wire.hpp"

namespace safe::serve {

/// How one SessionClient::stream() call ended.
enum class StreamEnd : std::uint8_t {
  kComplete,     ///< the estimate of the trace's last step arrived
  kCut,          ///< link lost or corrupted, or a resumable STATUS
  kOverloaded,   ///< STATUS kOverloaded: shed, resumable after a backoff
  kDraining,     ///< STATUS kDraining: the server is going away
  kServerError,  ///< a fatal ERROR frame
  kProtocol,     ///< an estimate out of step order, or an unexpected frame
  kDeadline,
};

class SessionClient {
 public:
  SessionClient() = default;
  ~SessionClient();

  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  /// Connects to host:port; throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);

  /// Result of the HELLO handshake. Exactly one of status/error is
  /// meaningful when ok/closed say so.
  struct OpenReply {
    bool ok = false;        ///< STATUS kHelloOk received
    StatusFrame status;     ///< valid when the server answered with STATUS
    ErrorFrame error;       ///< valid when the server answered with ERROR
    bool has_error = false;
    std::string transport_error;  ///< non-empty on socket/decoder failure
  };

  /// Sends HELLO and waits (up to deadline) for the server's verdict.
  OpenReply open_session(const HelloFrame& hello,
                         std::uint64_t deadline_ns = kDefaultDeadlineNs);

  /// What a session has delivered, in step order. A resumed session passes
  /// the same StreamResult to each stream() call, so it spans reconnects.
  struct StreamResult {
    bool complete = false;  ///< the last stream() call ended kComplete
    std::string detail;     ///< why the last stream() call ended short
    std::int64_t last_step = -1;  ///< step of the last accepted estimate
    std::vector<EstimateFrame> estimates;
    /// Raw wire bytes of each ESTIMATE frame, in step order — the
    /// byte-parity artifact compared against offline encoding.
    std::vector<std::vector<std::uint8_t>> estimate_frames;
    std::vector<ChallengeResultFrame> challenges;
    /// Latency of each estimate, aligned with `estimates`, timed from the
    /// first send of its measurement (so a replay after a reconnect
    /// includes the outage).
    std::vector<std::uint64_t> latencies_ns;
    std::uint64_t duplicates_discarded = 0;  ///< replayed frames already held
    /// First send time per step, kept across stream() calls.
    std::unordered_map<std::int64_t, std::uint64_t> first_send_ns;
  };

  /// Sends trace[from..] on an open session and appends every new reply to
  /// `into`, until it holds the estimate of the trace's last step. An
  /// estimate at or below into.last_step is a replay and is discarded; any
  /// other must be its successor, and a gap ends the stream as kProtocol.
  StreamEnd stream(const std::vector<MeasurementFrame>& trace,
                   std::size_t from, StreamResult& into,
                   std::uint64_t deadline_ns = kDefaultDeadlineNs);

  /// Streams `measurements`, whose first step is the next one the session
  /// expects, and collects every reply.
  StreamResult stream(const std::vector<MeasurementFrame>& measurements,
                      std::uint64_t deadline_ns = kDefaultDeadlineNs);

  /// Sends raw bytes as-is (malformed-input tests). Throws on socket error.
  void send_raw(const std::vector<std::uint8_t>& bytes);

  /// Waits for the next frame. nullopt on timeout, peer close, or decode
  /// failure (reason() explains which).
  std::optional<Frame> recv_frame(std::uint64_t deadline_ns);

  /// Why the last recv_frame() returned nullopt.
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Underlying socket fd (-1 when closed). Tests use it to assert socket
  /// options (TCP_NODELAY) on a live loopback connection.
  [[nodiscard]] int native_handle() const noexcept { return fd_; }

  void close() noexcept;

  static constexpr std::uint64_t kDefaultDeadlineNs = 30'000'000'000ULL;

 private:
  bool send_all(const std::uint8_t* data, std::size_t size);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::string reason_;
};

}  // namespace safe::serve
