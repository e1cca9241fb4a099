// serve-session-replay: the serve layer in-process, on the calling thread,
// with no socket and no event loop. Eight lanes, each one vehicle's DoS
// trace (see serve_lanes.hpp, made before the clock starts), are replayed
// as back-to-back 300-frame sessions. Every frame takes the path a served
// frame takes through the program:
//
//   frame ─┬─ serve.encode       encode(MeasurementFrame)           (client)
//          ├─ serve.ingest       FrameDecoder + decode(Measurement)  (server)
//          ├─ serve.session      Session::process                   (server)
//          ├─ serve.reply        encode(EstimateFrame), retain      (server)
//          └─ serve.decode       FrameDecoder + decode(EstimateFrame) (client)
//
// and its ESTIMATE is compared byte for byte with run_offline(). Sessions
// are opened, acknowledged and closed through a SessionManager, as the
// server does.
//
// Why: radar work is outside the timed window, so the wire codec and the
// session (its pipeline included) are the result. serve-open-loop adds the
// sockets and the StreamServer event loop; it is not listed in
// BENCHMARK.json (see the README).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/spec.hpp"
#include "serve/session.hpp"
#include "layers.hpp"
#include "serve_lanes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = safe::serve;
using Bytes = std::vector<std::uint8_t>;

// A frame's cost depends on its trace (tracking or RLS holdover), and the
// traces on the seed; eight lanes average that out across seeds.
constexpr std::size_t kLanes = 8;
// One repetition replays whole rounds (one session per lane each) of this
// many frames in all: about a second and a half on a current x86 core.
constexpr std::size_t kFramesPerRepetition = 720'000;
constexpr int kMinRepetitions = 3;
// What replay_kernel_s() takes on the reference host.
constexpr double kReplayKernelReferenceS = 1e-3;
constexpr int kSetupRepeats = 3;
// Traced rounds whose spans are kept (and written out); later traced rounds
// only time the tracing overhead, so memory stays bounded at any --seconds.
constexpr int kKeptTracedRounds = 50;

/// The host-speed calibration of this workload, run after every round so
/// that it samples the host state the round saw: half a millisecond or so
/// of the kinds of work a served frame does, small heap buffers allocated,
/// copied, appended to and queued, as the codec and the session's replay
/// buffer do. The compute kernel of the other workloads tracked this
/// workload poorly (round time rose as its time to the power 1.45), and a
/// kernel of byte-serial checksums and dependent floating-point updates
/// did no better (1.47); this one tracked it at 1.05 and 1.13 in two
/// one-minute runs. It belongs to the benchmark, so no change to the
/// program can move it.
double replay_kernel_s() {
  constexpr int kBuffers = 6000;
  constexpr std::size_t kQueued = 64;
  std::deque<Bytes> queue;
  std::uint64_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kBuffers; ++i) {
    const Bytes bytes(static_cast<std::size_t>(64 + i % 128),
                      static_cast<std::uint8_t>(i));
    Bytes copy(bytes.begin(), bytes.end());
    copy.insert(copy.end(), bytes.begin(), bytes.begin() + 16);
    sink += copy[static_cast<std::size_t>(i) % copy.size()] + copy.size();
    queue.push_back(std::move(copy));
    if (queue.size() > kQueued) queue.pop_front();
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  asm volatile("" : : "g"(sink) : "memory");  // keep the result observable
  return elapsed;
}

struct ReplaySetup {
  std::vector<LaneTrace> lanes;
  double offline_s = 0.0;  ///< run_offline() wall over every lane
  std::size_t frames = 0;  ///< frames in one round
};

ReplaySetup prepare_replay(std::uint64_t seed) {
  ReplaySetup setup;
  for (std::size_t l = 0; l < kLanes; ++l) {
    setup.lanes.push_back(make_lane_trace(seed, l, setup.offline_s, nullptr));
    setup.frames += setup.lanes.back().frames.size();
  }
  return setup;
}

/// Span names of one frame's path; unused when a round is not traced.
struct ReplayNames {
  explicit ReplayNames(Tracer& tracer)
      : frame(tracer.name("serve.frame")),
        encode(tracer.name("serve.encode")),
        ingest(tracer.name("serve.ingest")),
        session(tracer.name("serve.session")),
        reply(tracer.name("serve.reply")),
        decode(tracer.name("serve.decode")) {}

  std::uint32_t frame, encode, ingest, session, reply, decode;
};

/// What one round of sessions produced.
struct RoundResult {
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;      ///< frames without a matching ESTIMATE
  std::uint64_t mismatched = 0;  ///< ESTIMATEs that differ from run_offline()
  std::string failure;
};

/// Optional span around one call; records nothing when `tracer` is null.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, std::uint32_t name, std::uint64_t parent)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  ~MaybeSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  MaybeSpan(const MaybeSpan&) = delete;
  MaybeSpan& operator=(const MaybeSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Replays one session per lane. Each session's latency (HELLO decode
/// start to close, its 300 frames served one after another) is appended to
/// `session_us`; with a tracer, each call on a frame's path is recorded as
/// a span.
RoundResult replay_round(const ReplaySetup& setup,
                         serve::SessionManager& sessions,
                         std::vector<double>& session_us, Tracer* tracer,
                         const ReplayNames* names) {
  RoundResult out;
  for (std::size_t l = 0; l < setup.lanes.size(); ++l) {
    const LaneTrace& lane = setup.lanes[l];
    if (tracer != nullptr) tracer->set_request(l + 1);
    const std::int64_t t0 = now_ns();
    serve::FrameDecoder inbound;   // the server's view of the connection
    serve::FrameDecoder outbound;  // the client's
    inbound.feed(lane.hello.data(), lane.hello.size());
    std::optional<serve::Frame> hello_frame = inbound.next();
    serve::HelloFrame hello;
    if (!hello_frame || !serve::decode(*hello_frame, hello)) {
      throw std::runtime_error("HELLO did not decode");
    }
    serve::SessionManager::OpenResult opened =
        sessions.open(hello, static_cast<std::uint64_t>(now_ns()));
    if (!opened.session) {
      throw std::runtime_error("HELLO rejected: " + opened.error);
    }
    serve::Session& session = *opened.session;

    std::int64_t received = 0;
    for (const serve::MeasurementFrame& m : lane.frames) {
      ++out.frames;
      MaybeSpan frame_span(tracer, names ? names->frame : 0, 0);
      Bytes wire;
      {
        MaybeSpan span(tracer, names ? names->encode : 0, frame_span.id());
        wire = serve::encode(m);
      }
      serve::MeasurementFrame served;
      {
        MaybeSpan span(tracer, names ? names->ingest : 0, frame_span.id());
        inbound.feed(wire.data(), wire.size());
        const std::optional<serve::Frame> frame = inbound.next();
        if (!frame || !serve::decode(*frame, served)) {
          throw std::runtime_error("MEASUREMENT did not decode");
        }
      }
      serve::Session::StepOutput step;
      {
        MaybeSpan span(tracer, names ? names->session : 0, frame_span.id());
        step = session.process(served, static_cast<std::uint64_t>(now_ns()));
      }
      Bytes reply;
      {
        MaybeSpan span(tracer, names ? names->reply : 0, frame_span.id());
        Bytes step_bytes = serve::encode(step.estimate);
        std::uint64_t step_frames = 1;
        if (step.challenge.has_value()) {
          const Bytes challenge = serve::encode(*step.challenge);
          step_bytes.insert(step_bytes.end(), challenge.begin(),
                            challenge.end());
          ++step_frames;
        }
        reply = step_bytes;
        session.record_step_output(served.step, std::move(step_bytes),
                                   step_frames);
      }
      bool matched = false;
      {
        MaybeSpan span(tracer, names ? names->decode : 0, frame_span.id());
        outbound.feed(reply.data(), reply.size());
        while (std::optional<serve::Frame> frame = outbound.next()) {
          if (frame->type != serve::FrameType::kEstimate) continue;
          serve::EstimateFrame estimate;
          if (!serve::decode(*frame, estimate) || estimate.step != m.step ||
              estimate.step < 0 || estimate.step >= kServeHorizon) {
            continue;
          }
          const Bytes& want =
              lane.estimates[static_cast<std::size_t>(estimate.step)];
          matched =
              want.size() == serve::kHeaderBytes + frame->payload.size() &&
              std::equal(frame->payload.begin(), frame->payload.end(),
                         want.begin() + serve::kHeaderBytes);
          if (!matched) ++out.mismatched;
          ++received;
        }
      }
      if (!matched) ++out.failed;
    }
    if (inbound.failed() || outbound.failed()) {
      out.failure = "frame decoder failed on lane " + std::to_string(l);
    }
    if (received != kServeHorizon) {
      out.failure = "lane " + std::to_string(l) + " received " +
                    std::to_string(received) + " of " +
                    std::to_string(kServeHorizon) + " ESTIMATE frames";
    }
    const Bytes ack =
        serve::encode(serve::AckFrame{.last_step = kServeHorizon - 1});
    inbound.feed(ack.data(), ack.size());
    serve::AckFrame acked;
    const std::optional<serve::Frame> ack_frame = inbound.next();
    if (!ack_frame || !serve::decode(*ack_frame, acked)) {
      throw std::runtime_error("ACK did not decode");
    }
    session.ack(acked.last_step);
    sessions.close(session.token(), static_cast<std::uint64_t>(now_ns()));
    session_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return out;
}

void count_round(const RoundResult& round, Report& report) {
  report.attempted += round.frames;
  report.failed += round.failed;
  report.check(round.mismatched == 0,
               std::to_string(round.mismatched) +
                   " ESTIMATE frames differ from run_offline()");
  report.check(round.failure.empty(), round.failure);
}

Report run_replay_untraced(const RunOptions& options) {
  Report report;
  report.attempted_base = "frames";
  ReplaySetup setup;
  const Normalized setup_time = timed_setup(
      kSetupRepeats, [&](int) { setup = prepare_replay(options.seed); });

  serve::SessionManager sessions(serve::SessionLimits{}, options.seed);
  std::vector<double> warm_up;  // one untimed round
  count_round(replay_round(setup, sessions, warm_up, nullptr, nullptr), report);

  std::vector<Repetition> reps;
  std::vector<double> p99s;
  std::size_t sessions_timed = 0;
  std::vector<double> latency_us;  // per session
  std::vector<double> round_s;
  std::vector<double> kernel_s;
  const std::size_t rounds_per_repetition = kFramesPerRepetition / setup.frames;
  latency_us.reserve(setup.lanes.size() * rounds_per_repetition);
  const std::int64_t measure_start = now_ns();
  while (static_cast<int>(reps.size()) < kMinRepetitions ||
         static_cast<double>(now_ns() - measure_start) * 1e-9 <
             options.seconds) {
    latency_us.clear();
    round_s.clear();
    kernel_s.clear();
    for (std::size_t r = 0; r < rounds_per_repetition; ++r) {
      const std::int64_t t0 = now_ns();
      const RoundResult round =
          replay_round(setup, sessions, latency_us, nullptr, nullptr);
      round_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      kernel_s.push_back(replay_kernel_s());
      count_round(round, report);
    }
    sessions_timed += latency_us.size();
    const Summary s = summarize(latency_us);
    p99s.push_back(s.p99);
    reps.push_back(Repetition{
        .rate = static_cast<double>(setup.frames) / median(round_s),
        .latency_p50_us = s.p50,
        .calibration_s = median(kernel_s),
        .reference_s = kReplayKernelReferenceS,
    });
  }
  report.check(sessions.size() == 0, "sessions left open after the run");

  Summary tail;
  tail.n = sessions_timed;
  tail.p99 = median(p99s);
  tail.tail_q = highest_supported_percentile(sessions_timed);
  report_repetitions(report, setup_time, reps, tail);
  report.fact("throughput",
              "frames / wall s of the median round, median of repetitions");
  report.fact("latency",
              "one 300-frame session, HELLO decode to close, median of "
              "repetitions; p99 is the median of repetitions' p99s");
  std::string rates;
  for (const Repetition& r : reps) {
    rates += std::to_string(r.rate) + "/" + std::to_string(r.latency_p50_us) +
             "us@" + std::to_string(r.calibration_s) + "s ";
  }
  report.fact("repetition_frames_per_s_p50_at_calibration", rates);
  report.fact("lanes", std::to_string(kLanes));
  report.fact("frames_per_repetition",
              std::to_string(setup.frames * rounds_per_repetition));
  return report;
}

Report run_replay_traced(const RunOptions& options) {
  Report report;
  report.attempted_base = "frames";
  const ReplaySetup setup = prepare_replay(options.seed);
  const double service_us =
      setup.offline_s * 1e6 / static_cast<double>(setup.frames);

  serve::SessionManager sessions(serve::SessionLimits{}, options.seed);
  std::vector<double> untraced_us;
  count_round(replay_round(setup, sessions, untraced_us, nullptr, nullptr),
              report);

  // Alternate untraced and traced rounds so both see the same host; the
  // overhead compares their median frame times.
  Tracer tracer;
  const ReplayNames names(tracer);
  std::vector<double> traced_us;
  const std::int64_t start = now_ns();
  int rounds = 0;
  while (rounds < kKeptTracedRounds ||
         static_cast<double>(now_ns() - start) * 1e-9 < 0.5 * options.seconds) {
    untraced_us.clear();
    count_round(replay_round(setup, sessions, untraced_us, nullptr, nullptr),
                report);
    const double untraced_p50 = median(untraced_us);
    std::vector<double> round_us;
    if (rounds < kKeptTracedRounds) {
      count_round(replay_round(setup, sessions, round_us, &tracer, &names),
                  report);
    } else {
      Tracer scratch;
      const ReplayNames scratch_names(scratch);
      count_round(
          replay_round(setup, sessions, round_us, &scratch, &scratch_names),
          report);
    }
    traced_us.push_back(median(round_us) / untraced_p50);
    ++rounds;
  }
  report.check(sessions.size() == 0, "sessions left open after the run");

  // Pipeline and shadow-detector spans: the session pipeline replayed over
  // the same frames, exactly as run_offline() drives it.
  const LayerNames layer_names(tracer);
  LayerCounts counts;
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
        Tracer::Scope span(tracer, layer_names.pipeline, 0);
        span_id = span.id();
        safe_out = pipeline.process(m.step, m.measurement);
      }
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
        Tracer::Scope span(tracer, layer_names.observe, span_id);
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
  figures.pipeline_us = tracer.durations_us(layer_names.pipeline);
  figures.observe_us = tracer.durations_us(layer_names.observe);
  figures.holdover_ratio = static_cast<double>(counts.estimated) /
                           static_cast<double>(counts.epochs);
  report_layer_figures(figures, report);
  report_idle_runtime(report);

  report.distribution("serve.encode",
                      summarize(tracer.durations_us(names.encode)), "us");
  report.distribution("serve.decode",
                      summarize(tracer.durations_us(names.decode)), "us");
  report.distribution("serve.session",
                      summarize(tracer.durations_us(names.session)), "us");
  report.metric("serve.service_us", service_us, "us");
  report.metric("trace.overhead", median(traced_us) - 1.0, "ratio");
  report.fact("serve.ingest_p50_us",
              std::to_string(summarize(tracer.durations_us(names.ingest)).p50));
  report.fact("serve.reply_p50_us",
              std::to_string(summarize(tracer.durations_us(names.reply)).p50));
  report.fact("traced_rounds", std::to_string(rounds));
  write_spans(tracer, options);
  return report;
}

}  // namespace

Report run_serve_replay(const RunOptions& options) {
  return options.trace ? run_replay_traced(options)
                       : run_replay_untraced(options);
}

}  // namespace perfbench
