#include "serve/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace safe::serve {

namespace {

// Flag bit assignments (reserved bits must be zero on the wire).
constexpr std::uint8_t kMeasCoherentEcho = 1u << 0;
constexpr std::uint8_t kMeasPowerAlarm = 1u << 1;
constexpr std::uint8_t kMeasReserved =
    static_cast<std::uint8_t>(~(kMeasCoherentEcho | kMeasPowerAlarm));

constexpr std::uint16_t kEstTargetPresent = 1u << 0;
constexpr std::uint16_t kEstEstimated = 1u << 1;
constexpr std::uint16_t kEstUnderAttack = 1u << 2;
constexpr std::uint16_t kEstChallengeSlot = 1u << 3;
constexpr std::uint16_t kEstAttackStarted = 1u << 4;
constexpr std::uint16_t kEstAttackCleared = 1u << 5;
constexpr std::uint16_t kEstSafeStop = 1u << 6;
constexpr std::uint16_t kEstMeasurementRejected = 1u << 7;
constexpr std::uint16_t kEstReserved = static_cast<std::uint16_t>(0xff00u);

constexpr std::uint8_t kChalSilent = 1u << 0;
constexpr std::uint8_t kChalUnderAttack = 1u << 1;
constexpr std::uint8_t kChalReserved =
    static_cast<std::uint8_t>(~(kChalSilent | kChalUnderAttack));

/// Appends canonical little-endian fields; finish() prepends the header.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v & 0xffu));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
    }
  }

  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Clamps to the same cap the decoder enforces, so a locally built frame
  /// with an oversized string is truncated here rather than encoded with a
  /// length prefix that disagrees with its contents (or rejected only by
  /// the remote decoder).
  void str(const std::string& s, std::size_t max_bytes) {
    const std::size_t n = std::min(s.size(), max_bytes);
    u16(static_cast<std::uint16_t>(n));
    bytes_.reserve(bytes_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(s[i]));
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> finish(FrameType type) && {
    std::vector<std::uint8_t> frame;
    frame.reserve(kHeaderBytes + bytes_.size());
    const auto len = static_cast<std::uint32_t>(bytes_.size());
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<std::uint8_t>((len >> shift) & 0xffu));
    }
    frame.push_back(static_cast<std::uint8_t>(type));
    frame.insert(frame.end(), bytes_.begin(), bytes_.end());
    return frame;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reads over one payload; every accessor
/// returns false instead of reading past the end.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  bool u8(std::uint8_t& out) {
    if (size_ - pos_ < 1) return false;
    out = data_[pos_++];
    return true;
  }

  bool u16(std::uint16_t& out) {
    if (size_ - pos_ < 2) return false;
    out = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(data_[pos_]) |
        static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_ + 1])
                                   << 8));
    pos_ += 2;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (size_ - pos_ < 8) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    out = v;
    return true;
  }

  bool i64(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!u64(v)) return false;
    out = static_cast<std::int64_t>(v);
    return true;
  }

  bool f64(double& out) {
    std::uint64_t v = 0;
    if (!u64(v)) return false;
    out = std::bit_cast<double>(v);
    return true;
  }

  bool str(std::string& out, std::size_t max_bytes) {
    std::uint16_t len = 0;
    if (!u16(len)) return false;
    if (len > max_bytes || size_ - pos_ < len) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  /// True when the payload was consumed exactly (canonical form).
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool reject(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

// --- encoding --------------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloFrame& hello) {
  PayloadWriter w;
  w.u16(hello.protocol_version);
  w.u64(hello.scenario_seed);
  w.i64(hello.horizon_steps);
  w.u8(static_cast<std::uint8_t>(hello.leader));
  w.u8(static_cast<std::uint8_t>(hello.attack));
  w.u8(static_cast<std::uint8_t>(hello.estimator));
  w.u8(hello.hardened ? 1 : 0);
  w.f64(hello.attack_start_s.value());
  w.f64(hello.attack_end_s.value());
  w.str(hello.client_id, kMaxClientIdBytes);
  w.str(hello.fault_spec, kMaxFaultSpecBytes);
  w.str(hello.detector_spec, kMaxDetectorSpecBytes);
  return std::move(w).finish(FrameType::kHello);
}

std::vector<std::uint8_t> encode(const MeasurementFrame& m) {
  PayloadWriter w;
  w.i64(m.step);
  w.f64(m.measurement.estimate.distance_m.value());
  w.f64(m.measurement.estimate.range_rate_mps.value());
  w.f64(m.measurement.beats.up_hz.value());
  w.f64(m.measurement.beats.down_hz.value());
  w.f64(m.measurement.rx_power_w);
  w.f64(m.measurement.peak_to_average);
  std::uint8_t flags = 0;
  if (m.measurement.coherent_echo) flags |= kMeasCoherentEcho;
  if (m.measurement.power_alarm) flags |= kMeasPowerAlarm;
  w.u8(flags);
  return std::move(w).finish(FrameType::kMeasurement);
}

std::vector<std::uint8_t> encode(const EstimateFrame& e) {
  PayloadWriter w;
  w.i64(e.step);
  w.f64(e.safe.distance_m.value());
  w.f64(e.safe.relative_velocity_mps.value());
  std::uint16_t flags = 0;
  if (e.safe.target_present) flags |= kEstTargetPresent;
  if (e.safe.estimated) flags |= kEstEstimated;
  if (e.safe.under_attack) flags |= kEstUnderAttack;
  if (e.safe.challenge_slot) flags |= kEstChallengeSlot;
  if (e.safe.attack_started) flags |= kEstAttackStarted;
  if (e.safe.attack_cleared) flags |= kEstAttackCleared;
  if (e.safe.safe_stop) flags |= kEstSafeStop;
  if (e.safe.measurement_rejected) flags |= kEstMeasurementRejected;
  w.u16(flags);
  w.u8(static_cast<std::uint8_t>(e.safe.degradation));
  w.u64(static_cast<std::uint64_t>(e.safe.holdover_steps));
  return std::move(w).finish(FrameType::kEstimate);
}

std::vector<std::uint8_t> encode(const ChallengeResultFrame& c) {
  PayloadWriter w;
  w.i64(c.step);
  std::uint8_t flags = 0;
  if (c.silent) flags |= kChalSilent;
  if (c.under_attack) flags |= kChalUnderAttack;
  w.u8(flags);
  return std::move(w).finish(FrameType::kChallengeResult);
}

std::vector<std::uint8_t> encode(const StatusFrame& s) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(s.code));
  w.u64(s.session_token);
  w.str(s.message, kMaxMessageBytes);
  return std::move(w).finish(FrameType::kStatus);
}

std::vector<std::uint8_t> encode(const ErrorFrame& e) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(e.code));
  w.str(e.message, kMaxMessageBytes);
  return std::move(w).finish(FrameType::kError);
}

std::vector<std::uint8_t> encode(const ResumeFrame& r) {
  PayloadWriter w;
  w.u64(r.session_token);
  w.i64(r.last_step);
  return std::move(w).finish(FrameType::kResume);
}

std::vector<std::uint8_t> encode(const ResumeOkFrame& r) {
  PayloadWriter w;
  w.u64(r.session_token);
  w.i64(r.next_step);
  w.u64(r.replayed_frames);
  return std::move(w).finish(FrameType::kResumeOk);
}

std::vector<std::uint8_t> encode(const AckFrame& a) {
  PayloadWriter w;
  w.i64(a.last_step);
  return std::move(w).finish(FrameType::kAck);
}

// --- decoding --------------------------------------------------------------

bool decode(const Frame& frame, HelloFrame& out, std::string* error) {
  if (frame.type != FrameType::kHello) {
    return reject(error, "frame is not HELLO");
  }
  PayloadReader r(frame.payload);
  std::uint8_t leader = 0;
  std::uint8_t attack = 0;
  std::uint8_t estimator = 0;
  std::uint8_t hardened = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  if (!r.u16(out.protocol_version) || !r.u64(out.scenario_seed) ||
      !r.i64(out.horizon_steps) || !r.u8(leader) || !r.u8(attack) ||
      !r.u8(estimator) || !r.u8(hardened) || !r.f64(start_s) ||
      !r.f64(end_s) || !r.str(out.client_id, kMaxClientIdBytes) ||
      !r.str(out.fault_spec, kMaxFaultSpecBytes) ||
      !r.str(out.detector_spec, kMaxDetectorSpecBytes)) {
    return reject(error, "HELLO payload truncated or string too long");
  }
  if (!r.done()) return reject(error, "HELLO payload has trailing bytes");
  if (leader > 1) return reject(error, "HELLO leader scenario out of range");
  if (attack > 2) return reject(error, "HELLO attack kind out of range");
  if (estimator > 1) return reject(error, "HELLO estimator out of range");
  if (hardened > 1) return reject(error, "HELLO hardened flag out of range");
  out.leader = static_cast<core::LeaderScenario>(leader);
  out.attack = static_cast<core::AttackKind>(attack);
  out.estimator = static_cast<radar::BeatEstimator>(estimator);
  out.hardened = hardened != 0;
  out.attack_start_s = units::Seconds{start_s};
  out.attack_end_s = units::Seconds{end_s};
  return true;
}

bool decode(const Frame& frame, MeasurementFrame& out, std::string* error) {
  if (frame.type != FrameType::kMeasurement) {
    return reject(error, "frame is not MEASUREMENT");
  }
  PayloadReader r(frame.payload);
  double distance = 0.0;
  double range_rate = 0.0;
  double up_hz = 0.0;
  double down_hz = 0.0;
  std::uint8_t flags = 0;
  if (!r.i64(out.step) || !r.f64(distance) || !r.f64(range_rate) ||
      !r.f64(up_hz) || !r.f64(down_hz) || !r.f64(out.measurement.rx_power_w) ||
      !r.f64(out.measurement.peak_to_average) || !r.u8(flags)) {
    return reject(error, "MEASUREMENT payload truncated");
  }
  if (!r.done()) {
    return reject(error, "MEASUREMENT payload has trailing bytes");
  }
  if ((flags & kMeasReserved) != 0) {
    return reject(error, "MEASUREMENT reserved flag bits set");
  }
  out.measurement.estimate.distance_m = units::Meters{distance};
  out.measurement.estimate.range_rate_mps = units::MetersPerSecond{range_rate};
  out.measurement.beats.up_hz = units::Hertz{up_hz};
  out.measurement.beats.down_hz = units::Hertz{down_hz};
  out.measurement.coherent_echo = (flags & kMeasCoherentEcho) != 0;
  out.measurement.power_alarm = (flags & kMeasPowerAlarm) != 0;
  return true;
}

bool decode(const Frame& frame, EstimateFrame& out, std::string* error) {
  if (frame.type != FrameType::kEstimate) {
    return reject(error, "frame is not ESTIMATE");
  }
  PayloadReader r(frame.payload);
  double distance = 0.0;
  double velocity = 0.0;
  std::uint16_t flags = 0;
  std::uint8_t degradation = 0;
  std::uint64_t holdover = 0;
  if (!r.i64(out.step) || !r.f64(distance) || !r.f64(velocity) ||
      !r.u16(flags) || !r.u8(degradation) || !r.u64(holdover)) {
    return reject(error, "ESTIMATE payload truncated");
  }
  if (!r.done()) return reject(error, "ESTIMATE payload has trailing bytes");
  if ((flags & kEstReserved) != 0) {
    return reject(error, "ESTIMATE reserved flag bits set");
  }
  if (degradation > 3) {
    return reject(error, "ESTIMATE degradation state out of range");
  }
  out.safe.distance_m = units::Meters{distance};
  out.safe.relative_velocity_mps = units::MetersPerSecond{velocity};
  out.safe.target_present = (flags & kEstTargetPresent) != 0;
  out.safe.estimated = (flags & kEstEstimated) != 0;
  out.safe.under_attack = (flags & kEstUnderAttack) != 0;
  out.safe.challenge_slot = (flags & kEstChallengeSlot) != 0;
  out.safe.attack_started = (flags & kEstAttackStarted) != 0;
  out.safe.attack_cleared = (flags & kEstAttackCleared) != 0;
  out.safe.safe_stop = (flags & kEstSafeStop) != 0;
  out.safe.measurement_rejected = (flags & kEstMeasurementRejected) != 0;
  out.safe.degradation = static_cast<core::DegradationState>(degradation);
  out.safe.holdover_steps = static_cast<std::size_t>(holdover);
  return true;
}

bool decode(const Frame& frame, ChallengeResultFrame& out, std::string* error) {
  if (frame.type != FrameType::kChallengeResult) {
    return reject(error, "frame is not CHALLENGE_RESULT");
  }
  PayloadReader r(frame.payload);
  std::uint8_t flags = 0;
  if (!r.i64(out.step) || !r.u8(flags)) {
    return reject(error, "CHALLENGE_RESULT payload truncated");
  }
  if (!r.done()) {
    return reject(error, "CHALLENGE_RESULT payload has trailing bytes");
  }
  if ((flags & kChalReserved) != 0) {
    return reject(error, "CHALLENGE_RESULT reserved flag bits set");
  }
  out.silent = (flags & kChalSilent) != 0;
  out.under_attack = (flags & kChalUnderAttack) != 0;
  return true;
}

bool decode(const Frame& frame, StatusFrame& out, std::string* error) {
  if (frame.type != FrameType::kStatus) {
    return reject(error, "frame is not STATUS");
  }
  PayloadReader r(frame.payload);
  std::uint8_t code = 0;
  if (!r.u8(code) || !r.u64(out.session_token) ||
      !r.str(out.message, kMaxMessageBytes)) {
    return reject(error, "STATUS payload truncated or message too long");
  }
  if (!r.done()) return reject(error, "STATUS payload has trailing bytes");
  if (code > 4) return reject(error, "STATUS code out of range");
  out.code = static_cast<StatusCode>(code);
  return true;
}

bool decode(const Frame& frame, ErrorFrame& out, std::string* error) {
  if (frame.type != FrameType::kError) {
    return reject(error, "frame is not ERROR");
  }
  PayloadReader r(frame.payload);
  std::uint8_t code = 0;
  if (!r.u8(code) || !r.str(out.message, kMaxMessageBytes)) {
    return reject(error, "ERROR payload truncated or message too long");
  }
  if (!r.done()) return reject(error, "ERROR payload has trailing bytes");
  if (code < 1 || code > 8) return reject(error, "ERROR code out of range");
  out.code = static_cast<ErrorCode>(code);
  return true;
}

bool decode(const Frame& frame, ResumeFrame& out, std::string* error) {
  if (frame.type != FrameType::kResume) {
    return reject(error, "frame is not RESUME");
  }
  PayloadReader r(frame.payload);
  if (!r.u64(out.session_token) || !r.i64(out.last_step)) {
    return reject(error, "RESUME payload truncated");
  }
  if (!r.done()) return reject(error, "RESUME payload has trailing bytes");
  if (out.last_step < -1) {
    return reject(error, "RESUME last_step out of range");
  }
  return true;
}

bool decode(const Frame& frame, ResumeOkFrame& out, std::string* error) {
  if (frame.type != FrameType::kResumeOk) {
    return reject(error, "frame is not RESUME_OK");
  }
  PayloadReader r(frame.payload);
  if (!r.u64(out.session_token) || !r.i64(out.next_step) ||
      !r.u64(out.replayed_frames)) {
    return reject(error, "RESUME_OK payload truncated");
  }
  if (!r.done()) return reject(error, "RESUME_OK payload has trailing bytes");
  if (out.next_step < 0) {
    return reject(error, "RESUME_OK next_step out of range");
  }
  return true;
}

bool decode(const Frame& frame, AckFrame& out, std::string* error) {
  if (frame.type != FrameType::kAck) {
    return reject(error, "frame is not ACK");
  }
  PayloadReader r(frame.payload);
  if (!r.i64(out.last_step)) {
    return reject(error, "ACK payload truncated");
  }
  if (!r.done()) return reject(error, "ACK payload has trailing bytes");
  if (out.last_step < -1) return reject(error, "ACK last_step out of range");
  return true;
}

// --- FrameDecoder ----------------------------------------------------------

void FrameDecoder::feed(const void* data, std::size_t size) {
  if (failed_ || size == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void FrameDecoder::fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
}

std::optional<Frame> FrameDecoder::next() {
  if (failed_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return std::nullopt;

  const std::uint8_t* head = buffer_.data() + consumed_;
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<std::uint32_t>(head[i]) << (8 * i);
  }
  // Validate the header before waiting for (or buffering) the payload, so a
  // hostile length prefix can never drive allocation.
  if (payload_len > max_payload_) {
    fail("oversized frame: " + std::to_string(payload_len) +
         " bytes exceeds max payload " + std::to_string(max_payload_));
    return std::nullopt;
  }
  const std::uint8_t type_byte = head[4];
  if (type_byte < static_cast<std::uint8_t>(FrameType::kHello) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kAck)) {
    fail("unknown frame type " + std::to_string(type_byte));
    return std::nullopt;
  }
  if (available < kHeaderBytes + payload_len) return std::nullopt;

  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.payload.assign(head + kHeaderBytes,
                       head + kHeaderBytes + payload_len);
  consumed_ += kHeaderBytes + payload_len;
  // Compact once the dead prefix dominates, keeping amortized O(1) feeds.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return frame;
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kMeasurement: return "MEASUREMENT";
    case FrameType::kChallengeResult: return "CHALLENGE_RESULT";
    case FrameType::kEstimate: return "ESTIMATE";
    case FrameType::kStatus: return "STATUS";
    case FrameType::kError: return "ERROR";
    case FrameType::kResume: return "RESUME";
    case FrameType::kResumeOk: return "RESUME_OK";
    case FrameType::kAck: return "ACK";
  }
  return "?";
}

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kHelloOk: return "hello-ok";
    case StatusCode::kDraining: return "draining";
    case StatusCode::kSlowConsumer: return "slow-consumer";
    case StatusCode::kIdleTimeout: return "idle-timeout";
    case StatusCode::kOverloaded: return "overloaded";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kSessionLimit: return "session-limit";
    case ErrorCode::kProtocolOrder: return "protocol-order";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kResumeUnknown: return "resume-unknown";
    case ErrorCode::kResumeGap: return "resume-gap";
    case ErrorCode::kUnknownDetector: return "unknown-detector";
  }
  return "?";
}

}  // namespace safe::serve
