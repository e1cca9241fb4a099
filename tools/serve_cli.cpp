// Streaming safe-sensing server (DESIGN.md §12): accepts session
// connections speaking the binary wire protocol, runs each session's
// measurement stream through the paper's safe-measurement pipeline on a
// shared thread pool, and streams ESTIMATE frames back.
//
// Usage:
//   serve_cli [--bind ADDR] [--port N] [--port-file PATH] [--jobs N]
//             [--max-sessions N] [--idle-timeout-ms N]
//             [--max-outbound-kib N] [--seed N]
//             [--admission-max-batches N] [--frame-deadline-ms N]
//             [--resume-grace-ms N] [--max-retained-steps N]
//             [--metrics-out PATH] [--trace-out PATH]
//
// --port 0 (the default) binds a kernel-assigned port; --port-file writes
// the resolved port so scripts can wait for readiness. SIGTERM/SIGINT
// trigger a graceful drain: the listener closes, in-flight session work
// finishes, every client gets STATUS kDraining, then the process exits.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "spec/grammar.hpp"
#include "telemetry/telemetry.hpp"

namespace {

/// Largest millisecond value whose nanosecond count fits in 64 bits.
constexpr std::uint64_t kMaxMs = UINT64_MAX / 1'000'000ULL;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--bind ADDR] [--port N] [--port-file PATH] [--jobs N]\n"
               "       [--max-sessions N] [--idle-timeout-ms N]\n"
               "       [--max-outbound-kib N] [--seed N]\n"
               "       [--admission-max-batches N] [--frame-deadline-ms N]\n"
               "       [--resume-grace-ms N] [--max-retained-steps N]\n"
               "       [--metrics-out PATH] [--trace-out PATH]\n"
               "\n"
               "  --bind             listen address (default 127.0.0.1)\n"
               "  --port             listen port; 0 = kernel-assigned\n"
               "  --port-file        write the resolved port to PATH once\n"
               "                     listening (readiness signal for scripts)\n"
               "  --jobs             pipeline worker threads (default:\n"
               "                     hardware concurrency)\n"
               "  --max-sessions     live-session cap (default 64)\n"
               "  --idle-timeout-ms  idle-session eviction timeout\n"
               "                     (default 30000)\n"
               "  --max-outbound-kib per-connection outbound cap before a\n"
               "                     slow-consumer disconnect (default 256)\n"
               "  --seed             master seed for session-token derivation\n"
               "  --admission-max-batches\n"
               "                     shed new sessions with STATUS overloaded\n"
               "                     while this many batches are in flight\n"
               "                     (0 = admission control off)\n"
               "  --frame-deadline-ms\n"
               "                     shed a connection whose oldest queued\n"
               "                     frame waited longer (0 = off; the\n"
               "                     session stays resumable)\n"
               "  --resume-grace-ms  how long a detached session stays\n"
               "                     resumable (default 15000)\n"
               "  --max-retained-steps\n"
               "                     replay-buffer cap in steps per session\n"
               "                     (default 4096)\n"
               "  --metrics-out      telemetry metrics as JSONL to PATH\n"
               "  --trace-out        Chrome trace_event JSON to PATH\n";
  std::exit(2);
}

safe::serve::StreamServer* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

}  // namespace

int run(int argc, char** argv) {
  using namespace safe;

  serve::ServerOptions options;
  std::string port_file;
  std::string metrics_path;
  std::string trace_path;
  std::size_t jobs = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto index = [&](std::uint64_t max) {
      std::uint64_t v = 0;
      if (!spec::parse_index(next(), max, v)) usage(argv[0]);
      return v;
    };
    try {
      if (arg == "--bind") {
        options.bind_address = next();
      } else if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(index(65535));
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--jobs") {
        jobs = index(SIZE_MAX);
      } else if (arg == "--max-sessions") {
        options.session.max_sessions = index(SIZE_MAX);
      } else if (arg == "--idle-timeout-ms") {
        options.session.idle_timeout_ns = index(kMaxMs) * 1'000'000ULL;
      } else if (arg == "--max-outbound-kib") {
        options.max_outbound_bytes = index(SIZE_MAX / 1024) * 1024;
      } else if (arg == "--seed") {
        options.master_seed = index(UINT64_MAX);
      } else if (arg == "--admission-max-batches") {
        options.admission_max_batches = index(SIZE_MAX);
      } else if (arg == "--frame-deadline-ms") {
        options.frame_deadline_ns = index(kMaxMs) * 1'000'000ULL;
      } else if (arg == "--resume-grace-ms") {
        options.session.resume_grace_ns = index(kMaxMs) * 1'000'000ULL;
      } else if (arg == "--max-retained-steps") {
        options.session.max_retained_steps = index(SIZE_MAX);
      } else if (arg == "--metrics-out") {
        metrics_path = next();
      } else if (arg == "--trace-out") {
        trace_path = next();
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }

  if (!metrics_path.empty()) telemetry::set_metrics_enabled(true);
  if (!trace_path.empty()) {
    telemetry::set_tracing_enabled(true);
    telemetry::set_trace_detail(telemetry::TraceDetail::kFine);
  }
  telemetry::set_thread_name("serve-loop");

  const std::size_t workers =
      jobs != 0 ? jobs
                : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  runtime::ThreadPool pool(workers);
  serve::StreamServer server(options, pool);
  try {
    server.bind_and_listen();
  } catch (const std::exception& e) {
    std::cerr << "serve_cli: " << e.what() << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "serve_cli: cannot open " << port_file << "\n";
      return 1;
    }
    out << server.port() << "\n";
  }

  g_server = &server;
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr, "serve_cli: listening on %s:%u (%zu worker thread%s)\n",
               options.bind_address.c_str(),
               static_cast<unsigned>(server.port()), workers,
               workers == 1 ? "" : "s");
  try {
    server.run();
  } catch (const std::exception& e) {
    std::cerr << "serve_cli: event loop failed: " << e.what() << "\n";
    g_server = nullptr;
    return 1;
  }
  g_server = nullptr;
  pool.drain();

  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    if (!metrics_file) {
      std::cerr << "serve_cli: cannot open " << metrics_path << "\n";
      return 1;
    }
    telemetry::write_metrics_jsonl(metrics_file);
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "serve_cli: cannot open " << trace_path << "\n";
      return 1;
    }
    telemetry::write_chrome_trace(trace_file);
  }

  const serve::ServerStats stats = server.stats();
  const serve::SessionManager::Counters sessions = server.session_counters();
  std::fprintf(stderr,
               "serve_cli: drained cleanly — %llu connection(s), %llu "
               "session(s) opened (%llu rejected, %llu evicted), %llu "
               "frames in / %llu out, %llu decode error(s), %llu protocol "
               "error(s), %llu slow-consumer disconnect(s)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(sessions.opened),
               static_cast<unsigned long long>(sessions.rejected),
               static_cast<unsigned long long>(sessions.evicted),
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.frames_out),
               static_cast<unsigned long long>(stats.decode_errors),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(
                   stats.slow_consumer_disconnects));
  std::fprintf(stderr,
               "serve_cli: resilience — %llu session(s) resumed (%llu "
               "rejected), %llu frame(s) replayed, %llu hello shed(s), "
               "%llu deadline shed(s)\n",
               static_cast<unsigned long long>(stats.sessions_resumed),
               static_cast<unsigned long long>(stats.resume_rejects),
               static_cast<unsigned long long>(stats.replayed_frames),
               static_cast<unsigned long long>(stats.shed_hellos),
               static_cast<unsigned long long>(stats.deadline_sheds));
  return 0;
}

// Keeps bugprone-exception-escape honest for the CLI entry points: any
// exception the command loop does not handle becomes a diagnostic and a
// nonzero exit instead of std::terminate.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown error\n");
    return 1;
  }
}
