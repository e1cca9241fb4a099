// Retrying session client with resumption and exactly-once delivery
// accounting (DESIGN.md §13).
//
// ResilientClient wraps SessionClient in a reconnect state machine: on a
// disconnect or an explicit STATUS kOverloaded shed it backs off
// (exponential with SplitMix64 jitter), reconnects, and sends
// RESUME(token, last_step). The server replays retained frames after
// last_step; the client discards any estimate at or below the last step it
// already accepted, so every step is delivered exactly once no matter how
// many times the stream is cut. When a resume is rejected (kResumeUnknown /
// kResumeGap) the session restarts from scratch — a fresh pipeline is still
// byte-identical to the offline reference, so the parity contract holds
// either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"

namespace safe::serve {

/// Reconnect/backoff policy. Jitter is deterministic per (seed) — two runs
/// with the same seed draw the same jitter sequence.
struct RetryPolicy {
  std::size_t max_attempts = 8;  ///< total connection attempts per session
  std::uint64_t initial_backoff_ns = 25'000'000ULL;  ///< 25 ms
  std::uint64_t max_backoff_ns = 1'000'000'000ULL;   ///< 1 s
  double multiplier = 2.0;
  std::uint64_t jitter_seed = 1;
  /// ACK cadence: acknowledge received estimates every N steps so the
  /// server can trim its replay buffer.
  std::size_t ack_every = 32;
};

/// Why a resilient run gave up (kNone on success).
enum class StreamFailure : std::uint8_t {
  kNone = 0,
  kConnect,            ///< every attempt failed to connect
  kHandshake,          ///< server rejected HELLO with a fatal ERROR
  kResumeRejected,     ///< server rejected RESUME with a fatal ERROR
  kDeadline,           ///< overall deadline expired
  kServerStatus,       ///< non-retryable STATUS (e.g. draining)
  kServerError,        ///< mid-stream fatal ERROR frame
  kTransport,          ///< unrecoverable transport/protocol failure
  kAttemptsExhausted,  ///< retry budget spent before completion
};

[[nodiscard]] const char* to_string(StreamFailure failure);

struct ResilientResult {
  bool complete = false;
  std::vector<EstimateFrame> estimates;
  /// Raw wire bytes per accepted ESTIMATE, in step order (parity artifact).
  std::vector<std::vector<std::uint8_t>> estimate_frames;
  std::vector<ChallengeResultFrame> challenges;
  /// Send-to-receive latency per accepted estimate, timed from the first
  /// send of its measurement (so a replay after a reconnect includes the
  /// outage).
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t session_token = 0;

  std::size_t connects = 0;    ///< successful TCP connects
  std::size_t reconnects = 0;  ///< connects after the first
  std::size_t resumes = 0;     ///< RESUME handshakes accepted
  std::size_t restarts = 0;    ///< fresh-session restarts (resume rejected)
  std::size_t overload_backoffs = 0;  ///< STATUS kOverloaded sheds honored
  std::uint64_t duplicates_discarded = 0;  ///< replayed frames already held
  std::uint64_t replayed_frames = 0;  ///< frames the server replayed for us

  StreamFailure failure = StreamFailure::kNone;
  std::string failure_detail;
};

class ResilientClient {
 public:
  ResilientClient(std::string host, std::uint16_t port, RetryPolicy policy);

  /// Streams `trace` for `spec`, surviving disconnects and sheds, until
  /// every estimate arrived or the retry budget / deadline is spent.
  ResilientResult run(const TraceSpec& spec, const std::string& client_id,
                      const std::vector<MeasurementFrame>& trace,
                      std::uint64_t deadline_ns =
                          SessionClient::kDefaultDeadlineNs);

 private:
  const std::string host_;
  const std::uint16_t port_;
  const RetryPolicy policy_;
};

}  // namespace safe::serve
