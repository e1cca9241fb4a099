#include "spans.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::name(const std::string& text) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t Tracer::begin(std::uint32_t name, std::uint64_t parent) {
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void Tracer::end(std::uint64_t id) { spans_[id - 1].end_ns = now_ns(); }

std::vector<double> Tracer::durations_us(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

void Tracer::write_csv(std::ostream& out) const {
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.request << ','
        << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name) || !valid_unit(unit)) {
    throw std::logic_error("perfbench: invalid metric name or unit: " + name +
                           " [" + unit + "]");
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::distribution(const std::string& stem, const Summary& s,
                          const std::string& unit) {
  metric(stem + "_p50_" + unit, s.p50, unit);
  metric(stem + "_p99_" + unit, s.p99, unit);
}

void Report::fact(const std::string& key, const std::string& value) {
  facts.emplace_back(key, value);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"attempted_base\":" << json_escape(attempted_base)
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ',';
    out << json_escape(metrics[i].name) << ":{\"value\":"
        << json_number(metrics[i].value)
        << ",\"unit\":" << json_escape(metrics[i].unit) << '}';
  }
  out << "},\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out << ',';
    out << json_escape(failures[i]);
  }
  out << "],\"facts\":{";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out << ',';
    out << json_escape(facts[i].first) << ':' << json_escape(facts[i].second);
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
