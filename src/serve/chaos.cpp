#include "serve/chaos.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/net_util.hpp"
#include "spec/grammar.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Per-direction buffering cap: past this the proxy stops reading the
/// source socket, so a slow destination backpressures the source naturally.
constexpr std::size_t kMaxBufferedBytes = 256 * 1024;

constexpr std::size_t kReadChunk = 16 * 1024;

void take_probability(spec::Params& params, const std::string& key,
                      double& out) {
  params.take_number(key, out);
  if (!(out >= 0.0 && out <= 1.0)) {
    params.fail("`" + key + "` must be in [0, 1]");
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

ChaosSpec parse_chaos_spec(const std::string& text) {
  // Millisecond values are scaled to nanoseconds; past this they would wrap.
  constexpr std::uint64_t kMaxMs = UINT64_MAX / 1'000'000ULL;
  ChaosSpec out;
  if (text.empty() || text == "none") return out;

  for (const std::string& directive : spec::split_outside_quotes(text, ";+")) {
    if (directive.empty()) continue;
    spec::Params params = spec::parse_clause(directive, "chaos");
    const std::string& name = params.kind();
    // A directive without arguments is always a mistake: accepting it
    // would let a typo'd spec silently degrade to passthrough.
    if (params.empty()) params.fail("`" + directive + "` needs arguments");
    if (name == "latency") {
      std::uint64_t ms = out.latency_ns / 1'000'000ULL;
      std::uint64_t jitter_ms = out.jitter_ns / 1'000'000ULL;
      params.take_index("ms", kMaxMs, ms);
      params.take_index("jitter", kMaxMs, jitter_ms);
      out.latency_ns = ms * 1'000'000ULL;
      out.jitter_ns = jitter_ms * 1'000'000ULL;
    } else if (name == "throttle") {
      params.take_index("bps", UINT64_MAX, out.throttle_bytes_per_sec);
      if (out.throttle_bytes_per_sec == 0) params.fail("`bps` must be > 0");
    } else if (name == "split") {
      params.take_index("min", SIZE_MAX, out.split_min);
      params.take_index("max", SIZE_MAX, out.split_max);
      const bool max_given = out.split_max != 0;
      if (out.split_min == 0) out.split_min = 1;
      if (!max_given) {
        out.split_max = out.split_min;  // exact chunk size
      } else if (out.split_max < out.split_min) {
        params.fail("`max` < `min` in `" + directive + "`");
      }
    } else if (name == "corrupt") {
      take_probability(params, "prob", out.corrupt_prob);
    } else if (name == "disconnect") {
      take_probability(params, "prob", out.disconnect_prob);
      params.take_index("after", UINT64_MAX, out.disconnect_after_bytes);
    } else if (name == "halfclose") {
      params.take_index("after", UINT64_MAX, out.half_close_after_bytes);
      if (out.half_close_after_bytes == 0) params.fail("`after` must be > 0");
    } else {
      params.fail("unknown directive `" + name + "`");
    }
    params.reject_leftovers();
    params.check().throw_if_failed();
  }
  return out;
}

std::string chaos_spec_help() {
  return "latency:ms=N[,jitter=N] | throttle:bps=N | split:min=N,max=N | "
         "corrupt:prob=P | disconnect:prob=P[,after=N] | halfclose:after=N "
         "(';'-separated; empty or 'none' = passthrough)";
}

// --- ChaosPlan --------------------------------------------------------------

std::size_t ChaosPlan::next_chunk_len(std::size_t available) {
  if (available == 0) return 0;
  if (spec_.split_min == 0) return available;
  const std::size_t lo = std::max<std::size_t>(
      1, std::min(spec_.split_min, available));
  const std::size_t hi = std::max(lo, std::min(spec_.split_max, available));
  return lo + static_cast<std::size_t>(rng_() % (hi - lo + 1));
}

std::uint64_t ChaosPlan::next_delay_ns() {
  std::uint64_t delay = spec_.latency_ns;
  if (spec_.jitter_ns != 0) {
    delay += static_cast<std::uint64_t>(
        runtime::uniform_double(rng_) *
        static_cast<double>(spec_.jitter_ns));
  }
  return delay;
}

std::size_t ChaosPlan::corrupt(std::uint8_t* data, std::size_t size) {
  if (spec_.corrupt_prob <= 0.0) return 0;
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (runtime::uniform_double(rng_) < spec_.corrupt_prob) {
      data[i] ^= static_cast<std::uint8_t>(1U << (rng_() % 8));
      ++corrupted;
    }
  }
  return corrupted;
}

bool ChaosPlan::should_disconnect(std::uint64_t total_forwarded_bytes) {
  if (spec_.disconnect_after_bytes != 0 &&
      total_forwarded_bytes >= spec_.disconnect_after_bytes) {
    return true;
  }
  if (spec_.disconnect_prob > 0.0 &&
      runtime::uniform_double(rng_) < spec_.disconnect_prob) {
    return true;
  }
  return false;
}

// --- ChaosProxy -------------------------------------------------------------

ChaosProxy::ChaosProxy(ChaosSpec spec, std::uint64_t seed,
                       std::string target_host, std::uint16_t target_port)
    : spec_(spec),
      seed_(seed),
      target_host_(std::move(target_host)),
      target_port_(target_port) {}

ChaosProxy::~ChaosProxy() {
  for (Link& link : links_) close_link(link);
  links_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void ChaosProxy::bind_and_listen(const std::string& host, std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("chaos: socket() failed: " +
                             errno_string(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("chaos: bad bind address: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("chaos: bind/listen failed: " +
                             errno_string(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   wake_fds_) != 0) {
    throw std::runtime_error("chaos: socketpair failed: " +
                             errno_string(errno));
  }
}

void ChaosProxy::request_stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const std::uint8_t byte = 1;
    (void)::send(wake_fds_[1], &byte, 1, MSG_NOSIGNAL);
  }
}

void ChaosProxy::accept_ready(std::uint64_t now) {
  while (true) {
    const int client_fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (client_fd < 0) return;
    set_tcp_nodelay(client_fd);

    const int server_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool ok = server_fd >= 0;
    if (ok) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(target_port_);
      ok = ::inet_pton(AF_INET, target_host_.c_str(), &addr.sin_addr) == 1 &&
           ::connect(server_fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
    }
    if (!ok) {
      if (server_fd >= 0) ::close(server_fd);
      ::close(client_fd);
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.connect_failures;
      continue;
    }
    set_tcp_nodelay(server_fd);
    set_nonblocking(server_fd);

    Link link{client_fd,
              server_fd,
              ChaosPlan(spec_, seed_, next_connection_index_++),
              Pipe{},
              Pipe{},
              0,
              false};
    link.c2s.last_refill_ns = now;
    link.s2c.last_refill_ns = now;
    links_.push_back(std::move(link));
    const runtime::MutexLock lock(stats_mutex_);
    ++stats_.accepted;
  }
}

void ChaosProxy::close_link(Link& link) {
  if (link.client_fd >= 0) ::close(link.client_fd);
  if (link.server_fd >= 0) ::close(link.server_fd);
  if (link.client_fd >= 0 || link.server_fd >= 0) {
    const runtime::MutexLock lock(stats_mutex_);
    ++stats_.closed;
  }
  link.client_fd = -1;
  link.server_fd = -1;
}

bool ChaosProxy::flush_pipe(Link& link, Pipe& pipe, int dst_fd,
                            bool client_to_server, std::uint64_t now) {
  // Refill the throttle bucket.
  if (spec_.throttle_bytes_per_sec != 0) {
    const double rate = static_cast<double>(spec_.throttle_bytes_per_sec);
    const double burst = std::max(rate / 10.0, 4096.0);
    pipe.tokens += rate *
                   (static_cast<double>(now - pipe.last_refill_ns) * 1e-9);
    pipe.tokens = std::min(pipe.tokens, burst);
    pipe.last_refill_ns = now;
  }

  while (!pipe.chunks.empty() && !pipe.shut) {
    Chunk& front = pipe.chunks.front();
    if (front.release_ns > now) break;
    std::size_t want =
        link.plan.next_chunk_len(front.bytes.size() - front.offset);
    bool resplit = want < front.bytes.size() - front.offset;
    if (spec_.throttle_bytes_per_sec != 0) {
      if (pipe.tokens < 1.0) break;
      if (static_cast<double>(want) > pipe.tokens) {
        want = static_cast<std::size_t>(pipe.tokens);
        resplit = true;
      }
    }
    if (want == 0) break;

    const std::size_t corrupted =
        link.plan.corrupt(front.bytes.data() + front.offset, want);
    const ssize_t n =
        ::send(dst_fd, front.bytes.data() + front.offset, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // destination is gone
    }
    front.offset += static_cast<std::size_t>(n);
    pipe.buffered -= static_cast<std::size_t>(n);
    pipe.forwarded += static_cast<std::uint64_t>(n);
    link.total_forwarded += static_cast<std::uint64_t>(n);
    if (spec_.throttle_bytes_per_sec != 0) {
      pipe.tokens -= static_cast<double>(n);
    }
    {
      const runtime::MutexLock lock(stats_mutex_);
      stats_.bytes_forwarded += static_cast<std::uint64_t>(n);
      stats_.corrupted_bytes += corrupted;
      if (resplit) ++stats_.resplit_writes;
    }
    if (front.offset == front.bytes.size()) pipe.chunks.pop_front();

    if (link.plan.should_disconnect(link.total_forwarded)) {
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.disconnects_injected;
      return false;
    }
    if (client_to_server && !link.half_closed &&
        link.plan.should_half_close(pipe.forwarded)) {
      link.half_closed = true;
      pipe.shut = true;
      pipe.chunks.clear();
      pipe.buffered = 0;
      ::shutdown(dst_fd, SHUT_WR);
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.half_closes_injected;
      break;
    }
  }

  // Source finished and everything flushed: propagate the EOF.
  if (pipe.src_eof && pipe.chunks.empty() && !pipe.shut) {
    pipe.shut = true;
    ::shutdown(dst_fd, SHUT_WR);
  }
  return true;
}

void ChaosProxy::run() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t now = telemetry::now_ns();
    fds.clear();
    fds.push_back({.fd = wake_fds_[0], .events = POLLIN, .revents = 0});
    fds.push_back({.fd = listen_fd_, .events = POLLIN, .revents = 0});

    int timeout_ms = 50;
    for (const Link& link : links_) {
      for (const Pipe* pipe : {&link.c2s, &link.s2c}) {
        if (pipe->chunks.empty()) continue;
        const std::uint64_t release = pipe->chunks.front().release_ns;
        const std::uint64_t wait_ms =
            release > now ? (release - now) / 1'000'000ULL + 1 : 1;
        timeout_ms = std::min<int>(
            timeout_ms,
            static_cast<int>(std::min<std::uint64_t>(wait_ms, 50)));
      }
    }

    for (const Link& link : links_) {
      short client_events = 0;
      short server_events = 0;
      if (!link.c2s.src_eof && link.c2s.buffered < kMaxBufferedBytes) {
        client_events |= POLLIN;
      }
      if (!link.s2c.src_eof && link.s2c.buffered < kMaxBufferedBytes) {
        server_events |= POLLIN;
      }
      if (!link.s2c.chunks.empty() && !link.s2c.shut) client_events |= POLLOUT;
      if (!link.c2s.chunks.empty() && !link.c2s.shut) server_events |= POLLOUT;
      fds.push_back(
          {.fd = link.client_fd, .events = client_events, .revents = 0});
      fds.push_back(
          {.fd = link.server_fd, .events = server_events, .revents = 0});
    }

    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      break;
    }
    const std::uint64_t after = telemetry::now_ns();

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::recv(wake_fds_[0], drain, sizeof(drain), 0) > 0) {
      }
    }
    // accept_ready appends links that have no pollfd this round; they are
    // serviced from the next round on.
    const std::size_t polled_links = links_.size();
    if ((fds[1].revents & POLLIN) != 0) accept_ready(after);

    for (std::size_t i = 0; i < polled_links; ++i) {
      Link& link = links_[i];
      const pollfd& client_p = fds[2 + 2 * i];
      const pollfd& server_p = fds[2 + 2 * i + 1];
      bool alive = true;

      const auto read_side = [&](int fd, const pollfd& p, Pipe& pipe) {
        if (!alive || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
        while (pipe.buffered < kMaxBufferedBytes) {
          std::uint8_t buffer[kReadChunk];
          const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
          if (n > 0) {
            Chunk chunk;
            chunk.bytes.assign(buffer, buffer + n);
            chunk.release_ns = after + link.plan.next_delay_ns();
            pipe.buffered += static_cast<std::size_t>(n);
            pipe.chunks.push_back(std::move(chunk));
            continue;
          }
          if (n == 0) {
            pipe.src_eof = true;
            return;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          alive = false;  // hard error: drop the link
          return;
        }
      };

      read_side(link.client_fd, client_p, link.c2s);
      read_side(link.server_fd, server_p, link.s2c);

      if (alive) {
        alive = flush_pipe(link, link.c2s, link.server_fd, true, after) &&
                flush_pipe(link, link.s2c, link.client_fd, false, after);
      }
      // Both directions delivered their EOF (or were cut): link done.
      if (alive && link.c2s.shut && link.s2c.shut) alive = false;
      if (!alive) close_link(link);
    }
    links_.erase(std::remove_if(links_.begin(), links_.end(),
                                [](const Link& l) {
                                  return l.client_fd < 0 && l.server_fd < 0;
                                }),
                 links_.end());
  }

  for (Link& link : links_) close_link(link);
  links_.clear();
}

ChaosProxy::Stats ChaosProxy::stats() const {
  const runtime::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace safe::serve
