// Retrying session client with resumption and exactly-once delivery
// accounting (DESIGN.md §13).
//
// ResilientClient is a reconnect state machine around SessionClient. A
// fresh session opens with HELLO; after a disconnect or an explicit STATUS
// kOverloaded shed it backs off (exponential with SplitMix64 jitter),
// reconnects, and sends RESUME(token, last_step). The server replays
// retained frames after last_step, and SessionClient::stream() discards any
// estimate at or below the last step already accepted, so every step is
// delivered exactly once no matter how many times the stream is cut. When a
// resume is rejected (kResumeUnknown / kResumeGap) the session restarts from
// scratch — a fresh pipeline is still byte-identical to the offline
// reference, so the parity contract holds either way. A policy of one
// attempt is a plain single-connection session.
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
  std::size_t max_attempts = 8;  ///< total connection attempts (>= 1)
  /// Backoff before the second attempt; it doubles per attempt up to max.
  std::uint64_t initial_backoff_ns = 25'000'000ULL;  ///< 25 ms
  std::uint64_t max_backoff_ns = 1'000'000'000ULL;   ///< 1 s
  std::uint64_t jitter_seed = 1;
};

/// Why a resilient run gave up (kNone on success). When the retry budget
/// runs out, it is the last attempt's cause.
enum class StreamFailure : std::uint8_t {
  kNone = 0,
  kConnect,         ///< the TCP connect failed
  kHandshake,       ///< server rejected HELLO with a fatal ERROR
  kResumeRejected,  ///< server rejected RESUME with a fatal ERROR
  kOverloaded,      ///< shed with STATUS kOverloaded
  kDeadline,        ///< overall deadline expired
  kServerStatus,    ///< non-retryable STATUS (e.g. draining)
  kServerError,     ///< mid-stream fatal ERROR frame
  kTransport,       ///< transport cut or protocol failure
};

[[nodiscard]] const char* to_string(StreamFailure failure);

/// What every attempt together delivered (the StreamResult part, which
/// a restart clears), plus the reconnect accounting.
struct ResilientResult : SessionClient::StreamResult {
  std::uint64_t session_token = 0;

  std::size_t connects = 0;    ///< successful TCP connects
  std::size_t reconnects = 0;  ///< connects after the first
  std::size_t resumes = 0;     ///< RESUME handshakes accepted
  std::size_t restarts = 0;    ///< fresh-session restarts (resume rejected)
  std::size_t overload_backoffs = 0;  ///< STATUS kOverloaded sheds honored
  std::uint64_t replayed_frames = 0;  ///< frames the server replayed for us

  StreamFailure failure = StreamFailure::kNone;
  std::string failure_detail;
};

class ResilientClient {
 public:
  /// Throws std::invalid_argument when policy.max_attempts is 0.
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
