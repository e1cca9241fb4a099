// Chaos-proxy tests: spec-language parsing, deterministic per-connection
// fault plans, transparent passthrough parity, TCP_NODELAY on the serving
// path, and the acceptance soak — sessions streamed through scheduled
// disconnects, latency jitter, and write re-splitting complete with zero
// byte-parity violations via resume + retry.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/net_util.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"

namespace {

using namespace safe;
using namespace safe::serve;

class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options = {})
      : pool_(2), server_(std::move(options), pool_) {
    server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() {
    server_.request_drain();
    thread_.join();
    pool_.drain();
  }

  StreamServer& server() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  runtime::ThreadPool pool_;
  StreamServer server_;
  std::thread thread_;
};

/// Chaos proxy on its own thread, stopped and joined on destruction.
class ProxyHarness {
 public:
  ProxyHarness(const std::string& spec, std::uint64_t seed,
               std::uint16_t target_port)
      : proxy_(parse_chaos_spec(spec), seed, "127.0.0.1", target_port) {
    proxy_.bind_and_listen("127.0.0.1", 0);
    thread_ = std::thread([this] { proxy_.run(); });
  }

  ~ProxyHarness() {
    proxy_.request_stop();
    thread_.join();
  }

  ChaosProxy& proxy() { return proxy_; }
  [[nodiscard]] std::uint16_t port() const { return proxy_.port(); }

 private:
  ChaosProxy proxy_;
  std::thread thread_;
};

TraceSpec quick_spec(std::uint64_t seed, std::int64_t steps = 40) {
  TraceSpec spec;
  spec.seed = seed;
  spec.horizon_steps = steps;
  spec.attack = core::AttackKind::kDosJammer;
  spec.attack_start_s = units::Seconds{20.0};
  spec.attack_end_s = units::Seconds{60.0};
  return spec;
}

TEST(ChaosSpecParse, FullGrammarRoundTrips) {
  const ChaosSpec spec = parse_chaos_spec(
      "latency:ms=5,jitter=3;throttle:bps=65536;split:min=2,max=9;"
      "corrupt:prob=0.25;disconnect:prob=0.5,after=4096;halfclose:after=2048");
  EXPECT_EQ(spec.latency_ns, 5'000'000u);
  EXPECT_EQ(spec.jitter_ns, 3'000'000u);
  EXPECT_EQ(spec.throttle_bytes_per_sec, 65536u);
  EXPECT_EQ(spec.split_min, 2u);
  EXPECT_EQ(spec.split_max, 9u);
  EXPECT_DOUBLE_EQ(spec.corrupt_prob, 0.25);
  EXPECT_DOUBLE_EQ(spec.disconnect_prob, 0.5);
  EXPECT_EQ(spec.disconnect_after_bytes, 4096u);
  EXPECT_EQ(spec.half_close_after_bytes, 2048u);
  EXPECT_FALSE(spec.passthrough());
}

TEST(ChaosSpecParse, EmptyAndNoneArePassthrough) {
  EXPECT_TRUE(parse_chaos_spec("").passthrough());
  EXPECT_TRUE(parse_chaos_spec("none").passthrough());
}

TEST(ChaosSpecParse, PlusSeparatorAndDefaults) {
  const ChaosSpec spec = parse_chaos_spec("latency:ms=2+split:max=4");
  EXPECT_EQ(spec.latency_ns, 2'000'000u);
  EXPECT_EQ(spec.split_min, 1u);  // min defaults to 1
  EXPECT_EQ(spec.split_max, 4u);
}

TEST(ChaosSpecParse, MalformedSpecsThrow) {
  const char* bad[] = {
      "latency",           // no arguments
      "latency:ms=x",      // non-numeric
      "split:min=5,max=2", // max < min
      "corrupt:prob=1.5",  // probability out of range
      "throttle:bps=0",    // zero rate is meaningless
      "halfclose:after=0", // zero threshold is meaningless
      "warp:factor=9",     // unknown directive
      "latency:ms=1,bogus=2",  // unknown key
      "split:min=-1",          // negative count
      "corrupt:prob=nan",      // non-finite probability
      "latency:ms=5,ms=7",     // duplicate key
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW((void)parse_chaos_spec(spec), std::invalid_argument);
  }
}

TEST(ChaosPlan, DrawSequenceIsDeterministicPerSeedAndConnection) {
  const ChaosSpec spec = parse_chaos_spec(
      "latency:ms=1,jitter=4;split:min=1,max=9;disconnect:prob=0.05");
  const auto draws = [&spec](std::uint64_t seed, std::uint64_t index) {
    ChaosPlan plan(spec, seed, index);
    std::vector<std::uint64_t> sequence;
    for (int i = 0; i < 64; ++i) {
      sequence.push_back(plan.next_chunk_len(4096));
      sequence.push_back(plan.next_delay_ns());
      sequence.push_back(plan.should_disconnect(0) ? 1 : 0);
    }
    return sequence;
  };
  EXPECT_EQ(draws(7, 0), draws(7, 0));
  EXPECT_NE(draws(7, 0), draws(7, 1));
  EXPECT_NE(draws(7, 0), draws(8, 0));
}

TEST(ChaosPlan, SplitRespectsBoundsAndAvailability) {
  const ChaosSpec spec = parse_chaos_spec("split:min=2,max=5");
  ChaosPlan plan(spec, 3, 0);
  for (int i = 0; i < 256; ++i) {
    const std::size_t len = plan.next_chunk_len(4096);
    EXPECT_GE(len, 2u);
    EXPECT_LE(len, 5u);
  }
  // Never asks for more than is available.
  EXPECT_LE(plan.next_chunk_len(1), 1u);
}

TEST(ChaosProxy, PassthroughPreservesByteParity) {
  ServerHarness harness;
  ProxyHarness proxy("none", 5, harness.port());

  LoadOptions load;
  load.port = proxy.port();
  load.connections = 2;
  load.sessions = 4;
  load.spec = quick_spec(51);
  load.master_seed = 52;
  load.verify = true;
  const LoadReport report = run_load(load);
  for (const std::string& error : report.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sessions_verified, 4u);
  EXPECT_GE(proxy.proxy().stats().accepted, 2u);
  EXPECT_GT(proxy.proxy().stats().bytes_forwarded, 0u);
  EXPECT_EQ(proxy.proxy().stats().disconnects_injected, 0u);
}

TEST(ChaosProxy, NagleIsDisabledOnTheServingPath) {
  ServerHarness harness;

  // Client socket: asserted directly on the connected fd.
  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  ASSERT_GE(client.native_handle(), 0);
  EXPECT_TRUE(tcp_nodelay_enabled(client.native_handle()));

  // Server-accepted socket: the accept path records any setsockopt failure,
  // so accepted > 0 with zero failures proves TCP_NODELAY took effect.
  ASSERT_TRUE(client.open_session(hello_from(quick_spec(53), "nodelay")).ok);
  const ServerStats stats = harness.server().stats();
  EXPECT_GE(stats.accepted, 1u);
  EXPECT_EQ(stats.nodelay_failures, 0u);
}

// The acceptance soak: sessions streamed through a proxy that cuts every
// connection after 2500 forwarded bytes, delays chunks by 1-3 ms, and
// re-splits writes into 1..7-byte pieces. Every session must still complete
// with estimates byte-identical to the offline pipeline, surviving the cuts
// via RESUME. Seeds are fixed and logged so a failure reproduces exactly.
TEST(ChaosProxy, SoakWithDisconnectsJitterAndResplitKeepsParity) {
  constexpr std::uint64_t kChaosSeed = 7;
  constexpr std::uint64_t kLoadSeed = 71;
  SCOPED_TRACE("chaos_seed=7 load_seed=71 spec="
               "latency:ms=1,jitter=2;split:min=1,max=7;disconnect:after=2500");

  ServerHarness harness;
  ProxyHarness proxy("latency:ms=1,jitter=2;split:min=1,max=7;"
                     "disconnect:after=2500",
                     kChaosSeed, harness.port());

  LoadOptions load;
  load.port = proxy.port();
  load.connections = 8;
  load.sessions = 16;
  load.spec = quick_spec(kLoadSeed);
  load.master_seed = kLoadSeed;
  load.verify = true;
  load.retry_attempts = 40;
  load.retry.initial_backoff_ns = 5'000'000;  // keep the soak fast
  load.retry.max_backoff_ns = 100'000'000;
  const LoadReport report = run_load(load);

  for (const SessionError& error : report.session_errors) {
    ADD_FAILURE() << "session " << error.session << " ["
                  << to_string(error.kind) << "] " << error.detail;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sessions_completed, 16u);
  EXPECT_EQ(report.sessions_verified, 16u);
  EXPECT_EQ(report.verify_mismatched_frames, 0u);

  // The proxy actually did its job: every connection was eventually cut,
  // and the clients survived via resumption (or clean restarts when the
  // cut landed inside the handshake).
  EXPECT_GT(proxy.proxy().stats().disconnects_injected, 0u);
  EXPECT_GT(proxy.proxy().stats().resplit_writes, 0u);
  EXPECT_GT(report.reconnects, 0u);
  EXPECT_GT(report.resumes + report.restarts, 0u);
  EXPECT_EQ(harness.server().stats().sessions_resumed, report.resumes);
}

// Every estimate is timed from its measurement's first send, the ones the
// server replays after a RESUME included, so no latency reads 0.
TEST(ChaosProxy, ReconnectedStreamTimesEveryEstimate) {
  ServerHarness harness;
  ProxyHarness proxy("disconnect:after=2500", 9, harness.port());
  const TraceSpec spec = quick_spec(55, 120);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff_ns = 5'000'000;
  policy.max_backoff_ns = 100'000'000;
  ResilientClient client("127.0.0.1", proxy.port(), policy);
  const ResilientResult result = client.run(spec, "timed", trace);
  ASSERT_TRUE(result.complete)
      << to_string(result.failure) << ": " << result.failure_detail;
  EXPECT_GT(result.reconnects, 0u);
  ASSERT_EQ(result.latencies_ns.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GT(result.latencies_ns[i], 0u) << "step " << i;
  }
}

// A resilient client honors STATUS kOverloaded: it backs off and retries
// until admission clears, then completes with parity.
TEST(ChaosProxy, ResilientClientHonorsOverloadShed) {
  ServerOptions options;
  options.admission_max_batches = 1;
  runtime::ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });
  StreamServer server(options, pool);
  server.bind_and_listen();
  std::thread server_thread([&server] { server.run(); });

  const TraceSpec spec = quick_spec(54);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  // Wedge one batch in flight so admission control sheds new sessions.
  SessionClient occupant;
  occupant.connect("127.0.0.1", server.port());
  ASSERT_TRUE(occupant.open_session(hello_from(spec, "occupant")).ok);
  occupant.send_raw(encode(trace[0]));
  const auto wedge_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().frames_in < 1 &&
         std::chrono::steady_clock::now() < wedge_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::thread opener([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    release.set_value();
  });

  RetryPolicy policy;
  policy.max_attempts = 60;
  policy.initial_backoff_ns = 10'000'000;
  policy.max_backoff_ns = 100'000'000;
  ResilientClient client("127.0.0.1", server.port(), policy);
  const ResilientResult result = client.run(spec, "resilient", trace);
  EXPECT_TRUE(result.complete)
      << to_string(result.failure) << ": " << result.failure_detail;
  EXPECT_GE(result.overload_backoffs, 1u);

  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  ASSERT_EQ(result.estimate_frames.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.estimate_frames[i], encode(reference[i]))
        << "step " << i;
  }
  EXPECT_GE(server.stats().shed_hellos, 1u);

  opener.join();
  occupant.close();
  server.request_drain();
  server_thread.join();
  pool.drain();
}

}  // namespace
