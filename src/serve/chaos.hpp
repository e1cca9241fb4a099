// Deterministic network-fault-injecting TCP proxy (DESIGN.md §13).
//
// The chaos proxy sits between a session client and the serve::Server and
// perturbs the byte streams without understanding them: added latency and
// jitter, bandwidth throttling, re-splitting writes into arbitrary chunk
// sizes, bit corruption, scheduled or probabilistic mid-stream disconnects,
// and half-closes. All randomness comes from SplitMix64 streams derived
// from (seed, SeedStream::kChaos, connection index), so a soak run with a
// given seed exercises the same fault sequence every time.
//
// Spec grammar mirrors the fault mini-language (fault/schedule.hpp):
//   "latency:ms=5,jitter=3"            base delay + uniform jitter per chunk
//   "throttle:bps=65536"               token-bucket bandwidth cap
//   "split:min=1,max=7"                re-split forwarded writes to [min,max]
//   "corrupt:prob=0.001"               per-byte bit-flip probability
//   "disconnect:prob=0.01,after=4096"  cut per-chunk with prob, or once the
//                                      connection has forwarded `after` bytes
//   "halfclose:after=2048"             shutdown(client->server) after N bytes
// Directives are separated by ';' (or '+') and each is a spec-kernel clause
// (spec/grammar.hpp); an empty spec or "none" is a transparent passthrough.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/seed.hpp"
#include "runtime/sync.hpp"

namespace safe::serve {

struct ChaosSpec {
  std::uint64_t latency_ns = 0;  ///< base delay added to every chunk
  std::uint64_t jitter_ns = 0;   ///< uniform extra delay in [0, jitter)
  std::uint64_t throttle_bytes_per_sec = 0;  ///< 0 = unthrottled
  std::size_t split_min = 0;  ///< 0 = no re-splitting
  std::size_t split_max = 0;
  double corrupt_prob = 0.0;     ///< per-byte bit-flip probability
  double disconnect_prob = 0.0;  ///< per-forwarded-chunk cut probability
  std::uint64_t disconnect_after_bytes = 0;  ///< 0 = no scheduled cut
  std::uint64_t half_close_after_bytes = 0;  ///< 0 = no half-close

  [[nodiscard]] bool passthrough() const {
    return latency_ns == 0 && jitter_ns == 0 && throttle_bytes_per_sec == 0 &&
           split_min == 0 && corrupt_prob == 0.0 && disconnect_prob == 0.0 &&
           disconnect_after_bytes == 0 && half_close_after_bytes == 0;
  }
};

/// Parses the chaos spec mini-language. Throws std::invalid_argument with a
/// message naming the offending token. Empty spec / "none" -> passthrough.
[[nodiscard]] ChaosSpec parse_chaos_spec(const std::string& spec);

/// One-line usage string for CLIs exposing `--chaos`.
[[nodiscard]] std::string chaos_spec_help();

/// The per-connection fault plan: a pure deterministic draw sequence over
/// one SplitMix64 stream. Separated from the proxy's socket plumbing so the
/// draw logic is unit-testable without networking.
class ChaosPlan {
 public:
  ChaosPlan(const ChaosSpec& spec, std::uint64_t seed,
            std::uint64_t connection_index)
      : spec_(spec),
        rng_(runtime::derive_seed(seed, runtime::SeedStream::kChaos,
                                  connection_index)) {}

  /// Size of the next forwarded write given `available` pending bytes.
  [[nodiscard]] std::size_t next_chunk_len(std::size_t available);

  /// Delay (ns) applied to a chunk read off the wire before it is eligible
  /// for forwarding: latency + uniform jitter.
  [[nodiscard]] std::uint64_t next_delay_ns();

  /// Flips random bits in-place per the corruption probability; returns the
  /// number of corrupted bytes.
  std::size_t corrupt(std::uint8_t* data, std::size_t size);

  /// True when this connection should be cut: a per-chunk probability draw,
  /// or the scheduled byte threshold has been crossed.
  [[nodiscard]] bool should_disconnect(std::uint64_t total_forwarded_bytes);

  /// True when the client->server direction should be half-closed.
  [[nodiscard]] bool should_half_close(std::uint64_t c2s_forwarded_bytes)
      const {
    return spec_.half_close_after_bytes != 0 &&
           c2s_forwarded_bytes >= spec_.half_close_after_bytes;
  }

  [[nodiscard]] const ChaosSpec& spec() const { return spec_; }

 private:
  ChaosSpec spec_;
  runtime::SplitMix64 rng_;
};

/// A single-threaded poll-based TCP interposer. Accepts on its own port and
/// forwards each connection to target host:port through a ChaosPlan seeded
/// by the accept index.
class ChaosProxy {
 public:
  ChaosProxy(ChaosSpec spec, std::uint64_t seed, std::string target_host,
             std::uint16_t target_port);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listening socket (port 0 = ephemeral); throws on failure.
  void bind_and_listen(const std::string& host, std::uint16_t port);

  /// Port actually bound (valid after bind_and_listen).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Runs the proxy loop until request_stop(). Call from a dedicated thread.
  void run();

  /// Signals run() to drop every link and return.
  void request_stop();

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t connect_failures = 0;  ///< upstream connect() failed
    std::uint64_t disconnects_injected = 0;
    std::uint64_t half_closes_injected = 0;
    std::uint64_t bytes_forwarded = 0;
    std::uint64_t corrupted_bytes = 0;
    std::uint64_t resplit_writes = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Chunk {
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;
    std::uint64_t release_ns = 0;
  };

  /// One forwarding direction of a link.
  struct Pipe {
    std::deque<Chunk> chunks;
    std::size_t buffered = 0;
    bool src_eof = false;   ///< source half-closed; flush then propagate
    bool shut = false;      ///< SHUT_WR already sent on the destination
    double tokens = 0.0;    ///< throttle token bucket
    std::uint64_t last_refill_ns = 0;
    std::uint64_t forwarded = 0;
  };

  struct Link {
    int client_fd = -1;
    int server_fd = -1;
    ChaosPlan plan;
    Pipe c2s;  ///< client -> server
    Pipe s2c;  ///< server -> client
    std::uint64_t total_forwarded = 0;
    bool half_closed = false;
  };

  void accept_ready(std::uint64_t now);
  /// Forwards one eligible chunk; returns false when the link must close.
  bool flush_pipe(Link& link, Pipe& pipe, int dst_fd, bool client_to_server,
                  std::uint64_t now);
  void close_link(Link& link);

  const ChaosSpec spec_;
  const std::uint64_t seed_;
  const std::string target_host_;
  const std::uint16_t target_port_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::uint64_t next_connection_index_ = 0;
  std::vector<Link> links_;

  mutable runtime::Mutex stats_mutex_;
  Stats stats_ SAFE_GUARDED_BY(stats_mutex_);
};

}  // namespace safe::serve
