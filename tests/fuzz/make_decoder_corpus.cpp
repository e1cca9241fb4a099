// Seed-corpus generator for fuzz_frame_decoder.
//
// Uses the real encoders so the corpus tracks the wire format instead of
// rotting as hex blobs, and bakes in the decoder edge cases the unit tests
// pinned (oversized length prefix, unknown frame type, reserved flag bits,
// truncation, trailing payload bytes, re-split streams). Each corpus file
// starts with the harness's chunk-size selector byte; 0x00 means
// single-byte dribble (the chaos-proxy worst case), 0x24 keeps chunks
// larger than any frame here (single-shot decode).
//
// Usage: make_decoder_corpus <output-dir>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace {

using safe::serve::AckFrame;
using safe::serve::ChallengeResultFrame;
using safe::serve::EstimateFrame;
using safe::serve::ErrorFrame;
using safe::serve::HelloFrame;
using safe::serve::MeasurementFrame;
using safe::serve::ResumeFrame;
using safe::serve::ResumeOkFrame;
using safe::serve::StatusFrame;

using Bytes = std::vector<std::uint8_t>;

void append(Bytes& out, const Bytes& frame) {
  out.insert(out.end(), frame.begin(), frame.end());
}

void write_case(const std::filesystem::path& dir, const std::string& name,
                std::uint8_t chunk_selector, const Bytes& stream) {
  std::ofstream out(dir / name, std::ios::binary);
  out.put(static_cast<char>(chunk_selector));
  out.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);

  HelloFrame hello;
  hello.scenario_seed = 42;
  hello.horizon_steps = 16;
  hello.client_id = "corpus-client";
  hello.fault_spec = "none";
  hello.detector_spec = "fusion:members=cra+chi2,quorum=1";

  MeasurementFrame meas;
  meas.step = 3;

  EstimateFrame est;
  est.step = 3;
  est.safe.target_present = true;

  ChallengeResultFrame chal;
  chal.step = 4;
  chal.silent = true;

  StatusFrame status;
  status.session_token = 7;
  status.message = "session open";

  ErrorFrame error;
  error.message = "malformed frame";

  ResumeFrame resume;
  resume.session_token = 7;
  resume.last_step = 2;

  ResumeOkFrame resume_ok;
  resume_ok.session_token = 7;
  resume_ok.next_step = 3;
  resume_ok.replayed_frames = 1;

  AckFrame ack;
  ack.last_step = 3;

  // --- well-formed streams (coverage of every payload parser) -------------
  Bytes client_stream;
  append(client_stream, encode(hello));
  append(client_stream, encode(meas));
  append(client_stream, encode(ack));
  write_case(dir, "client_stream", 0x24, client_stream);
  write_case(dir, "client_stream_dribble", 0x00, client_stream);

  Bytes server_stream;
  append(server_stream, encode(status));
  append(server_stream, encode(est));
  append(server_stream, encode(chal));
  append(server_stream, encode(resume_ok));
  append(server_stream, encode(error));
  write_case(dir, "server_stream", 0x24, server_stream);

  Bytes resume_stream;
  append(resume_stream, encode(resume));
  append(resume_stream, encode(resume_ok));
  write_case(dir, "resume_pair", 0x07, resume_stream);

  // Pre-v3 HELLO: the v3 layout without its trailing detector_spec field
  // (an empty string's u16 length). The decoder rejects it as truncated.
  HelloFrame hello_v2 = hello;
  hello_v2.protocol_version = 2;
  hello_v2.detector_spec.clear();
  Bytes v2_bytes = encode(hello_v2);
  v2_bytes.resize(v2_bytes.size() - 2);
  v2_bytes[0] = static_cast<std::uint8_t>(v2_bytes[0] - 2);  // payload length
  write_case(dir, "hello_v2", 0x24, v2_bytes);

  // --- framing-violation regressions (PR 5/6 decoder edge cases) ----------
  // Length prefix beyond kMaxPayloadBytes: rejected before buffering.
  write_case(dir, "oversized_length_prefix", 0x24,
             Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0x01});
  // Valid length, unknown frame type byte.
  write_case(dir, "unknown_frame_type", 0x24,
             Bytes{0x00, 0x00, 0x00, 0x00, 0x7F});
  // Reserved flag bits set: MEASUREMENT's flags byte (last payload byte)
  // must only carry the two defined bits; 0xFF trips the decode() check.
  Bytes reserved = encode(meas);
  reserved.back() = 0xFF;
  write_case(dir, "reserved_flag_bits", 0x24, reserved);
  // Truncated mid-payload: not an error, the decoder waits for more bytes.
  Bytes truncated = encode(hello);
  truncated.resize(truncated.size() / 2);
  write_case(dir, "truncated_frame", 0x24, truncated);
  // One trailing byte after the last payload byte: decode() rejects the
  // frame, the decoder itself keeps going (it is a payload-level error).
  Bytes trailing = encode(ack);
  trailing[0] += 1;  // length prefix claims one extra payload byte
  trailing.push_back(0x00);
  write_case(dir, "trailing_payload_byte", 0x24, trailing);
  // Header split across feeds plus a corrupt second frame.
  Bytes split_corrupt;
  append(split_corrupt, encode(meas));
  split_corrupt.push_back(0xDE);
  split_corrupt.push_back(0xAD);
  write_case(dir, "split_then_garbage", 0x02, split_corrupt);

  std::fprintf(stderr, "corpus written to %s\n", dir.c_str());
  return 0;
}
