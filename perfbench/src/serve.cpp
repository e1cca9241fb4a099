// serve-open-loop: an in-process serve::StreamServer on loopback, driven
// open loop. Each lane is one vehicle: it replays its DoS trace (made by
// serve::make_measurement_trace with the periodogram estimator and the paper
// pipeline, before the clock starts) as back-to-back sessions, one epoch per
// period whether or not the server keeps up. One generator thread sends on
// the fixed schedule over at most nproc connections (one per lane) and reads
// the replies in the same poll loop.
//
// Why: radar work is entirely outside the timed window, so wire, session,
// event-loop and socket costs are the result. A radar change must show no
// change here, except in setup_s.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "detect/spec.hpp"
#include "runtime/seed.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/net_util.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"
#include "layers.hpp"
#include "serve_lanes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = safe::serve;
using Bytes = std::vector<std::uint8_t>;

constexpr std::int64_t kHorizon = kServeHorizon;
constexpr double kFixedShare = 0.5;  // of --seconds spent at rate R
// The time at R is split into this many phases, each bracketed by loopback
// round-trip calibrations; the p50 reported is the median of their
// normalized p50s.
constexpr int kRateRPhases = 5;
constexpr int kRttRoundTrips = 2000;
// Serve latency is reported as on a host whose loopback round trip takes
// this long.
constexpr double kLoopbackRttReferenceS = 30e-6;
constexpr std::int64_t kDrainTimeoutNs = 2'000'000'000;
constexpr double kMissed = std::numeric_limits<double>::infinity();
// Latency tails are the median of per-window p99s over windows of this many
// frames (in due order); 2000 frames leave 20 beyond each window's p99.
constexpr std::size_t kWindowFrames = 2000;

/// The server and its worker pool, torn down by drain.
class ServerHarness {
 public:
  ServerHarness() : pool_(1), server_(serve::ServerOptions{}, pool_) {
    server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerHarness() {
    server_.request_drain();
    thread_.join();
  }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] serve::ServerStats stats() const { return server_.stats(); }

 private:
  safe::runtime::ThreadPool pool_;
  serve::StreamServer server_;
  std::thread thread_;  // declared last: joins before the server goes
};

struct ServeSetup {
  std::vector<LaneTrace> lanes;
  double offline_s = 0.0;  ///< run_offline() wall over every lane
  std::vector<double> encode_us;
  std::unique_ptr<ServerHarness> server;
};

ServeSetup prepare_serve(std::uint64_t seed, std::size_t lanes,
                         bool time_encode) {
  ServeSetup setup;
  for (std::size_t l = 0; l < lanes; ++l) {
    setup.lanes.push_back(make_lane_trace(
        seed, l, setup.offline_s, time_encode ? &setup.encode_us : nullptr));
  }
  setup.server = std::make_unique<ServerHarness>();
  return setup;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + serve::errno_string(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect: " + serve::errno_string(err));
  }
  serve::set_tcp_nodelay(fd);
  return fd;
}

/// Median round trip, in microseconds, of a one-byte ping-pong between two
/// threads over a loopback TCP connection: the socket and wake-up cost that
/// serve latency is made of. It belongs to the benchmark, so no change to
/// the program can move it; serve latency is normalized by it as the other
/// workloads' times are by the compute calibration kernel.
double loopback_rtt_us(int round_trips) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) {
    throw std::runtime_error("socket: " + serve::errno_string(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), len) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(listener);
    throw std::runtime_error("loopback listener: " + serve::errno_string(err));
  }
  int client = -1;
  try {
    client = connect_loopback(ntohs(addr.sin_port));
  } catch (...) {
    ::close(listener);
    throw;
  }
  const int peer = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  ::close(listener);
  if (peer < 0) {
    ::close(client);
    throw std::runtime_error("accept: " + serve::errno_string(errno));
  }
  serve::set_tcp_nodelay(peer);
  std::thread echo([peer, round_trips] {
    char byte = 0;
    for (int i = 0; i < round_trips; ++i) {
      if (::recv(peer, &byte, 1, 0) != 1) break;
      if (::send(peer, &byte, 1, MSG_NOSIGNAL) != 1) break;
    }
  });
  std::vector<double> rtt_us;
  char byte = 'p';
  for (int i = 0; i < round_trips; ++i) {
    const std::int64_t t0 = now_ns();
    if (::send(client, &byte, 1, MSG_NOSIGNAL) != 1 ||
        ::recv(client, &byte, 1, 0) != 1) {
      break;
    }
    rtt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  ::close(client);  // ends the echo thread if the loop stopped early
  echo.join();
  ::close(peer);
  if (rtt_us.size() != static_cast<std::size_t>(round_trips)) {
    throw std::runtime_error("loopback ping-pong failed");
  }
  return median(rtt_us);
}

bool send_all(int fd, const Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

struct PhaseResult {
  double rate = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t answered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t failed = 0;  ///< unanswered, shed or mismatched
  std::uint64_t sessions_evicted = 0;  ///< live sessions lost to idle-timeout
  std::vector<double> latency_us;  ///< per frame; kMissed when failed
  std::vector<double> lag_us;      ///< send time - due time
  std::vector<double> decode_us;
  std::size_t backlog_max = 0;
  double achieved_per_s = 0.0;
  std::string failure;
};

/// One lane's connection state inside a phase.
struct LaneState {
  int fd = -1;
  serve::FrameDecoder decoder;
  std::uint64_t cursor = 0;   ///< next frame of this lane to send (j)
  std::uint64_t session = 0;  ///< session of the open connection
  std::int64_t received = 0;  ///< estimates received on this connection
  std::uint64_t skip_to = 0;  ///< frames before this belong to a lost session
  /// A send failed because the server closed the connection. The lane
  /// stops sending; the read path then finds out why (an idle-timeout
  /// STATUS, or a lost connection that fails the lane).
  bool send_failed = false;
  bool failed = false;
};

/// Runs `sessions` back-to-back sessions per lane at `rate` frames/s in
/// total, open loop: lane l's j-th frame is global frame j*L + l, due at
/// start + (j*L + l) / rate.
PhaseResult run_phase(ServeSetup& setup, double rate, std::uint64_t sessions,
                      bool trace) {
  const std::size_t n_lanes = setup.lanes.size();
  const auto horizon = static_cast<std::uint64_t>(kHorizon);
  const std::uint64_t per_lane = sessions * horizon;
  PhaseResult out;
  out.rate = rate;
  out.frames = per_lane * n_lanes;
  out.latency_us.assign(out.frames, kMissed);
  out.lag_us.reserve(out.frames);

  std::vector<LaneState> lanes(n_lanes);
  const std::uint16_t port = setup.server->port();
  const OpenLoopSchedule schedule(now_ns() + 2'000'000, rate);
  const auto global = [n_lanes](std::size_t lane, std::uint64_t j) {
    return j * n_lanes + lane;
  };
  std::uint64_t sent = 0;
  std::uint64_t abandoned = 0;  // sent frames of lost sessions
  std::int64_t last_arrival = 0;
  std::vector<std::uint8_t> buffer(65536);
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_lane;

  const auto close_lane = [](LaneState& lane) {
    if (lane.fd >= 0) ::close(lane.fd);
    lane.fd = -1;
  };
  const auto fail_lane = [&](LaneState& lane, const std::string& why) {
    if (out.failure.empty()) out.failure = why;
    lane.failed = true;
    close_lane(lane);
  };

  while (true) {
    // Send every frame that is due, lane by lane. A lane whose previous
    // session has not delivered all its estimates holds its next session's
    // frames back; their latency still counts from their due time.
    const std::int64_t now = now_ns();
    std::int64_t next_due = std::numeric_limits<std::int64_t>::max();
    bool all_sent = true;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      LaneState& lane = lanes[l];
      while (!lane.failed && !lane.send_failed && lane.cursor < per_lane) {
        if (lane.cursor < lane.skip_to) {
          lane.cursor = lane.skip_to;  // never sent: these frames fail
          continue;
        }
        const std::uint64_t i = global(l, lane.cursor);
        const std::int64_t due = schedule.due_ns(i);
        if (due > now) {
          next_due = std::min(next_due, due);
          break;
        }
        const std::uint64_t session = lane.cursor / horizon;
        const std::uint64_t step = lane.cursor % horizon;
        if (step == 0) {
          if (lane.fd >= 0) break;  // previous session still delivering
          try {
            lane.fd = connect_loopback(port);
          } catch (const std::exception& e) {
            fail_lane(lane, e.what());
            break;
          }
          lane.decoder = serve::FrameDecoder{};
          lane.session = session;
          lane.received = 0;
          if (!send_all(lane.fd, setup.lanes[l].hello)) {
            fail_lane(lane, "HELLO send failed");
            break;
          }
        }
        if (!send_all(lane.fd, setup.lanes[l].measurements[step])) {
          lane.send_failed = true;
          break;
        }
        out.lag_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
        ++lane.cursor;
        ++sent;
      }
      if (!lane.failed && lane.cursor < per_lane) all_sent = false;
    }
    out.backlog_max = std::max<std::size_t>(out.backlog_max,
                                            sent - abandoned - out.answered);

    bool open = false;
    for (const LaneState& lane : lanes) open = open || lane.fd >= 0;
    if (all_sent && !open) break;
    if (all_sent && now > schedule.due_ns(out.frames) + kDrainTimeoutNs) {
      out.failure = "estimates still missing after the drain timeout";
      break;
    }

    fds.clear();
    fd_lane.clear();
    for (std::size_t l = 0; l < n_lanes; ++l) {
      if (lanes[l].fd < 0) continue;
      fds.push_back(pollfd{.fd = lanes[l].fd, .events = POLLIN, .revents = 0});
      fd_lane.push_back(l);
    }
    std::int64_t wait_ns = next_due == std::numeric_limits<std::int64_t>::max()
                               ? 10'000'000
                               : std::max<std::int64_t>(next_due - now_ns(), 0);
    wait_ns = std::min<std::int64_t>(wait_ns, 10'000'000);
    const timespec timeout{.tv_sec = 0, .tv_nsec = wait_ns};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;

    for (std::size_t p = 0; p < fds.size(); ++p) {
      if (fds[p].revents == 0) continue;
      const std::size_t l = fd_lane[p];
      LaneState& lane = lanes[l];
      const LaneTrace& lane_trace = setup.lanes[l];
      bool peer_closed = false;
      while (true) {
        const ssize_t n =
            ::recv(lane.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
        if (n > 0) {
          lane.decoder.feed(buffer.data(), static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        peer_closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      const std::int64_t arrival = now_ns();
      while (true) {
        const std::int64_t t0 = trace ? now_ns() : 0;
        std::optional<serve::Frame> frame = lane.decoder.next();
        if (!frame) break;
        if (frame->type == serve::FrameType::kEstimate) {
          serve::EstimateFrame estimate;
          const bool decoded = serve::decode(*frame, estimate);
          if (trace) {
            out.decode_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
          }
          if (!decoded || estimate.step < 0 || estimate.step >= kHorizon) {
            fail_lane(lane, "undecodable ESTIMATE frame");
            break;
          }
          const auto step = static_cast<std::uint64_t>(estimate.step);
          const Bytes& want = lane_trace.estimates[step];
          const bool same =
              want.size() == serve::kHeaderBytes + frame->payload.size() &&
              std::equal(frame->payload.begin(), frame->payload.end(),
                         want.begin() + serve::kHeaderBytes);
          const std::uint64_t i = global(l, lane.session * horizon + step);
          ++out.answered;
          ++lane.received;
          last_arrival = arrival;
          if (same) {
            out.latency_us[i] =
                static_cast<double>(schedule.latency_ns(i, arrival)) * 1e-3;
          } else {
            ++out.mismatched;
          }
          if (lane.received == kHorizon) {
            const serve::AckFrame ack{.last_step = kHorizon - 1};
            send_all(lane.fd, serve::encode(ack));
            close_lane(lane);
            break;
          }
        } else if (frame->type == serve::FrameType::kStatus) {
          serve::StatusFrame status;
          const bool decoded = serve::decode(*frame, status);
          if (decoded && status.code == serve::StatusCode::kIdleTimeout) {
            // The server evicted a session that was live (see the README).
            // The failure stands: the session's unanswered frames count as
            // failed, and the lane starts its next session on schedule.
            ++out.sessions_evicted;
            abandoned += lane.cursor - lane.session * horizon -
                         static_cast<std::uint64_t>(lane.received);
            lane.skip_to = (lane.session + 1) * horizon;
            lane.send_failed = false;
            close_lane(lane);
            break;
          }
          if (!decoded || status.code != serve::StatusCode::kHelloOk) {
            fail_lane(lane, std::string("server STATUS ") +
                                serve::to_string(status.code));
            break;
          }
        } else if (frame->type != serve::FrameType::kChallengeResult) {
          fail_lane(lane, std::string("unexpected frame ") +
                              serve::to_string(frame->type));
          break;
        }
      }
      if (lane.fd >= 0 && (peer_closed || lane.decoder.failed())) {
        fail_lane(lane, lane.send_failed
                            ? "connection closed by the server mid-session"
                            : "connection lost mid-session");
      }
    }
  }
  for (LaneState& lane : lanes) close_lane(lane);

  for (const double v : out.latency_us) {
    if (v == kMissed) ++out.failed;
  }
  if (last_arrival > 0) {
    out.achieved_per_s = static_cast<double>(out.answered - out.mismatched) *
                         1e9 /
                         static_cast<double>(last_arrival - schedule.due_ns(0));
  }
  return out;
}

/// p50 of every frame and the windowed p99 of a phase, in due order.
Summary phase_latency(const PhaseResult& phase) {
  Summary s = summarize(phase.latency_us);
  s.p99 = windowed_p99(phase.latency_us, kWindowFrames);
  return s;
}

/// A ladder rate passes when no ESTIMATE differed from the reference, its
/// p99 meets the limit (an unanswered frame misses it), and its backlog is
/// not growing: a growing backlog makes the latest frames the slowest, so
/// the median of the last fifth of the phase must meet the limit too.
bool rate_passes(const PhaseResult& phase, double limit_us) {
  if (phase.mismatched > 0) return false;
  const std::size_t fifth = phase.latency_us.size() / 5;
  const std::vector<double> last(
      phase.latency_us.end() - static_cast<std::ptrdiff_t>(fifth),
      phase.latency_us.end());
  return phase_latency(phase).p99 <= limit_us && median(last) <= limit_us;
}

std::uint64_t sessions_for(double rate, double seconds, std::size_t lanes) {
  // At least one full latency window per phase.
  const double frames_per_round = static_cast<double>(lanes * kHorizon);
  const double frames =
      std::max(seconds * rate, static_cast<double>(kWindowFrames));
  return static_cast<std::uint64_t>(std::ceil(frames / frames_per_round));
}

void report_server_stats(const serve::ServerStats& stats, Report& report) {
  report.metric("serve.frames_in", static_cast<double>(stats.frames_in),
                "count");
  report.metric("serve.frames_out", static_cast<double>(stats.frames_out),
                "count");
  report.metric("serve.decode_errors",
                static_cast<double>(stats.decode_errors), "count");
  report.metric("serve.slow_consumer_disconnects",
                static_cast<double>(stats.slow_consumer_disconnects), "count");
  report.metric("serve.deadline_sheds",
                static_cast<double>(stats.deadline_sheds), "count");
  report.metric("serve.bytes_in", static_cast<double>(stats.bytes_in),
                "bytes");
  report.metric("serve.bytes_out", static_cast<double>(stats.bytes_out),
                "bytes");
}

/// Counts a phase's frames. A lost connection or drain timeout fails the
/// run only at rate R; on the ladder it is the overload the ladder probes,
/// and its unanswered frames count as failed.
void count_phase(const PhaseResult& phase, bool at_rate_r, Report& report,
                 std::uint64_t& sessions_evicted) {
  report.attempted += phase.frames;
  report.failed += phase.failed;
  sessions_evicted += phase.sessions_evicted;
  report.check(phase.mismatched == 0,
               std::to_string(phase.mismatched) +
                   " ESTIMATE frames differ from run_offline()");
  if (at_rate_r) {
    report.check(phase.failure.empty(), "serve phase at " +
                                            std::to_string(phase.rate) +
                                            " frames/s: " + phase.failure);
  }
}

/// Live sessions the server evicted as idle: a program defect, reported
/// so that its fix shows (see the README).
void report_evictions(std::uint64_t sessions_evicted, Report& report) {
  report.fact("sessions_evicted_idle_timeout",
              std::to_string(sessions_evicted) +
                  " (their unanswered frames are counted as failed)");
}

void validate(const RunOptions& o) {
  if (!(o.serve_rate > 0.0) || !(o.serve_p99_limit_us > 0.0) ||
      o.serve_ladder.empty()) {
    throw std::invalid_argument(
        "serve-open-loop needs --serve-rate, --serve-ladder and "
        "--serve-p99-limit-us");
  }
  for (std::size_t i = 0; i < o.serve_ladder.size(); ++i) {
    const double prev = i == 0 ? o.serve_rate : o.serve_ladder[i - 1];
    if (!(o.serve_ladder[i] > prev)) {
      throw std::invalid_argument("--serve-ladder must rise above R");
    }
  }
}

Report run_serve_untraced(const RunOptions& options, std::size_t lanes) {
  Report report;
  report.attempted_base = "frames";
  // Every repetition binds its own server; the spares are drained after
  // the timed set-up so teardown never counts toward it.
  std::vector<ServeSetup> setups;
  const Normalized setup_time = timed_setup(5, [&](int) {
    setups.push_back(prepare_serve(options.seed, lanes, false));
  });
  ServeSetup setup = std::move(setups.back());
  setups.clear();

  const double fixed_s = options.seconds * kFixedShare;
  std::uint64_t sessions_evicted = 0;
  PhaseResult fixed;  // every phase at R, in due order
  std::vector<Repetition> reps;
  std::vector<double> achieved;
  std::string phases;
  for (int k = 0; k < kRateRPhases; ++k) {
    const double rtt_before_us = loopback_rtt_us(kRttRoundTrips);
    PhaseResult part = run_phase(
        setup, options.serve_rate,
        sessions_for(options.serve_rate, fixed_s / kRateRPhases, lanes),
        false);
    const double rtt_us =
        0.5 * (rtt_before_us + loopback_rtt_us(kRttRoundTrips));
    count_phase(part, true, report, sessions_evicted);
    const double p50 = phase_latency(part).p50;
    phases += "p50=" + std::to_string(p50) + "us@rtt=" +
              std::to_string(rtt_us) + "us,lag_p50=" +
              std::to_string(median(part.lag_us)) + "us; ";
    reps.push_back(Repetition{.latency_p50_us = p50,
                              .calibration_s = rtt_us * 1e-6,
                              .reference_s = kLoopbackRttReferenceS,
                              .scale_rate = false});
    achieved.push_back(part.achieved_per_s);
    fixed.rate = part.rate;
    fixed.frames += part.frames;
    fixed.mismatched += part.mismatched;
    fixed.latency_us.insert(fixed.latency_us.end(), part.latency_us.begin(),
                            part.latency_us.end());
    fixed.lag_us.insert(fixed.lag_us.end(), part.lag_us.begin(),
                        part.lag_us.end());
  }
  fixed.achieved_per_s = median(achieved);
  const Summary latency = phase_latency(fixed);

  // Rising ladder; R itself is the first rung.
  const double rung_s = (options.seconds - fixed_s) /
                        static_cast<double>(options.serve_ladder.size());
  double max_rate = 0.0;
  double max_nominal = 0.0;
  if (rate_passes(fixed, options.serve_p99_limit_us)) {
    max_rate = fixed.achieved_per_s;
    max_nominal = options.serve_rate;
  }
  std::string ladder;
  for (const double rate : options.serve_ladder) {
    const PhaseResult phase =
        run_phase(setup, rate, sessions_for(rate, rung_s, lanes), false);
    count_phase(phase, false, report, sessions_evicted);
    const bool pass =
        phase.failure.empty() && rate_passes(phase, options.serve_p99_limit_us);
    const Summary s = phase_latency(phase);
    ladder += std::to_string(static_cast<long long>(rate)) + ":" +
              (pass ? "pass" : "fail") + "(p99=" + std::to_string(s.p99) +
              "us" + (phase.failure.empty() ? "" : ", " + phase.failure) +
              ") ";
    if (!pass) break;
    max_rate = phase.achieved_per_s;
    max_nominal = rate;
  }
  report.check(max_rate > 0.0, "no rate met the p99 limit");
  report_evictions(sessions_evicted, report);
  for (Repetition& r : reps) r.rate = max_rate;
  report_repetitions(report, setup_time, reps, latency);
  report.fact("throughput",
              "max_rate_fps = achieved frames/s at the highest ladder rate "
              "meeting the p99 limit with no growing backlog");
  report.fact("latency",
              "due send time to ESTIMATE arrival at rate R, median of the "
              "phases at R; p99 is the median of per-window p99s over " +
                  std::to_string(kWindowFrames) + "-frame windows");
  report.fact("rate_R_fps", std::to_string(options.serve_rate));
  report.fact("p99_limit_us", std::to_string(options.serve_p99_limit_us));
  report.fact("max_rate_nominal_fps", std::to_string(max_nominal));
  report.fact("ladder", ladder);
  report.fact("r_phases", phases);
  report.fact("serve_p50_us", std::to_string(latency.p50));
  report.fact("serve_p99_us", std::to_string(latency.p99));
  report.fact("connections", std::to_string(lanes));
  report.fact("generator_lag_p99_us",
              std::to_string(summarize(fixed.lag_us).p99));
  return report;
}

Report run_serve_traced(const RunOptions& options, std::size_t lanes) {
  Report report;
  report.attempted_base = "frames";
  ServeSetup setup = prepare_serve(options.seed, lanes, true);
  std::size_t total_frames = 0;
  for (const LaneTrace& lane : setup.lanes) total_frames += lane.frames.size();
  const double service_us =
      setup.offline_s * 1e6 / static_cast<double>(total_frames);

  const PhaseResult fixed = run_phase(
      setup, options.serve_rate,
      sessions_for(options.serve_rate, options.seconds * kFixedShare, lanes),
      true);
  std::uint64_t sessions_evicted = 0;
  count_phase(fixed, true, report, sessions_evicted);
  report_evictions(sessions_evicted, report);

  // Pipeline and shadow-detector spans: the session pipeline replayed over
  // the same frames, exactly as run_offline() drives it.
  Tracer tracer;
  const LayerNames names(tracer);
  LayerCounts counts;
  double traced_s = 0.0;
  for (std::size_t l = 0; l < setup.lanes.size(); ++l) {
    const LaneTrace& lane = setup.lanes[l];
    tracer.set_request(l + 1);
    safe::core::SafeMeasurementPipeline pipeline =
        serve::build_session_pipeline(lane.spec);
    const safe::core::PipelineOptions popts =
        serve::pipeline_options_for(lane.spec);
    safe::detect::DetectorBackendPtr shadow =
        safe::detect::make_detector(popts.detector_spec, popts.detector);
    for (const serve::MeasurementFrame& m : lane.frames) {
      safe::core::SafeMeasurement safe_out;
      std::uint64_t span_id = 0;
      {
        Tracer::Scope span(tracer, names.pipeline, 0);
        span_id = span.id();
        safe_out = pipeline.process(m.step, m.measurement);
      }
      const Tracer::Span& s = tracer.span(span_id);
      traced_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const safe::detect::Observation obs{
          .step = m.step,
          .challenge_slot = pipeline.probe_suppressed(m.step),
          .receiver_nonzero = m.measurement.nonzero_output(),
          .coherent_echo = m.measurement.coherent_echo,
          .distance = m.measurement.estimate.distance_m,
          .relative_velocity = m.measurement.estimate.range_rate_mps,
      };
      safe::detect::Verdict verdict;
      {
        Tracer::Scope span(tracer, names.observe, span_id);
        verdict = shadow->observe(obs);
      }
      if (verdict.under_attack != safe_out.under_attack) {
        ++counts.shadow_mismatches;
      }
      ++counts.epochs;
      if (safe_out.estimated) ++counts.estimated;
    }
  }
  report.check(counts.shadow_mismatches == 0,
               std::to_string(counts.shadow_mismatches) +
                   " shadow detector verdicts differ from the pipeline");
  LayerFigures figures;
  figures.pipeline_us = tracer.durations_us(names.pipeline);
  figures.observe_us = tracer.durations_us(names.observe);
  figures.holdover_ratio =
      static_cast<double>(counts.estimated) / static_cast<double>(counts.epochs);
  report_layer_figures(figures, report);
  report_idle_runtime(report);

  std::vector<double> transport_us;
  for (const double v : fixed.latency_us) {
    if (v != kMissed) transport_us.push_back(v - service_us);
  }
  report.distribution("serve.encode", summarize(setup.encode_us), "us");
  report.distribution("serve.decode", summarize(fixed.decode_us), "us");
  report.metric("serve.service_us", service_us, "us");
  report.distribution("serve.transport", summarize(transport_us), "us");
  report.metric("serve.backlog_max", static_cast<double>(fixed.backlog_max),
                "count");
  report.metric("serve.generator_lag_p99_us", summarize(fixed.lag_us).p99,
                "us");
  report_server_stats(setup.server->stats(), report);
  report.metric("serve.sessions_evicted",
                static_cast<double>(sessions_evicted), "count");
  report.metric("trace.overhead",
                traced_s / (setup.offline_s) - 1.0, "ratio");
  report.fact("latency_p50_us",
              std::to_string(summarize(fixed.latency_us).p50));
  write_spans(tracer, options);
  return report;
}

}  // namespace

LaneTrace make_lane_trace(std::uint64_t seed, std::size_t lane,
                          double& offline_s, std::vector<double>* encode_us) {
  LaneTrace out;
  out.spec.attack = safe::core::AttackKind::kDosJammer;
  out.spec.estimator = safe::radar::BeatEstimator::kPeriodogram;
  out.spec.horizon_steps = kServeHorizon;
  out.spec.seed = safe::runtime::derive_seed(
      seed, safe::runtime::SeedStream::kScenario, lane);
  out.hello = serve::encode(
      serve::hello_from(out.spec, "perfbench-" + std::to_string(lane)));
  out.frames = serve::make_measurement_trace(out.spec);
  for (const serve::MeasurementFrame& m : out.frames) {
    const std::int64_t t0 = now_ns();
    out.measurements.push_back(serve::encode(m));
    if (encode_us != nullptr) {
      encode_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  const std::int64_t t0 = now_ns();
  const std::vector<serve::EstimateFrame> offline =
      serve::run_offline(out.spec, out.frames);
  offline_s += static_cast<double>(now_ns() - t0) * 1e-9;
  for (const serve::EstimateFrame& e : offline) {
    out.estimates.push_back(serve::encode(e));
  }
  return out;
}

Report run_serve(const RunOptions& options) {
  validate(options);
  // Client loop sleeps to the microsecond, not the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t lanes = std::min<std::size_t>(options.nproc, 4);
  return options.trace ? run_serve_traced(options, lanes)
                       : run_serve_untraced(options, lanes);
}

}  // namespace perfbench
