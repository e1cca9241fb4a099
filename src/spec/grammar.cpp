#include "spec/grammar.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace safe::spec {

namespace {

/// Kind and key names: non-empty [A-Za-z0-9_].
bool valid_name(const std::string& name) {
  return !name.empty() &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
         });
}

}  // namespace

void Check::throw_if_failed() const {
  if (!ok()) throw std::invalid_argument(message);
}

std::string none_as_empty(const std::string& value) {
  return value == "none" ? std::string{} : value;
}

std::vector<std::string> split_outside_quotes(const std::string& text,
                                              const std::string& seps,
                                              bool comments) {
  std::vector<std::string> parts(1);
  bool in_quotes = false;
  bool in_comment = false;
  for (const char c : text) {
    if (in_comment && c != '\n') continue;
    in_comment = false;
    if (c == '"') in_quotes = !in_quotes;
    if (!in_quotes && comments && c == '#') {
      in_comment = true;
    } else if (!in_quotes && seps.find(c) != std::string::npos) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

std::string unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

bool parse_number(const std::string& raw, double& out) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(raw, &consumed);
    if (consumed != raw.size() || !std::isfinite(v)) return false;
    out = v;
    return true;
  } catch (const std::exception&) {  // invalid_argument or out_of_range
    return false;
  }
}

bool parse_index(const std::string& raw, std::uint64_t max,
                 std::uint64_t& out) {
  // std::stoull reads "-1" as 2^64 - 1; no '-' may appear at all.
  if (raw.find('-') != std::string::npos) return false;
  try {
    std::size_t consumed = 0;
    const unsigned long long v = std::stoull(raw, &consumed);
    if (consumed != raw.size() || v > max) return false;
    out = static_cast<std::uint64_t>(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_switch(const std::string& raw, bool& out) {
  if (raw == "on" || raw == "true" || raw == "1") {
    out = true;
  } else if (raw == "off" || raw == "false" || raw == "0") {
    out = false;
  } else {
    return false;
  }
  return true;
}

void Params::fail(const std::string& why) {
  if (ok()) check_ = {Status::kMalformed, language_ + " spec: " + why};
}

bool Params::take_raw(const std::string& key, std::string& out) {
  const auto it = values_.find(key);
  if (!ok() || it == values_.end()) return false;
  out = it->second;
  values_.erase(it);
  return true;
}

void Params::take_number(const std::string& key, double& out) {
  std::string raw;
  if (take_raw(key, raw) && !parse_number(raw, out)) {
    fail("bad value for `" + key + "`: `" + raw + "`");
  }
}

void Params::take_positive(const std::string& key, double& out) {
  take_number(key, out);
  if (!(out > 0.0)) fail("`" + key + "` must be > 0");
}

void Params::take_non_negative(const std::string& key, double& out) {
  take_number(key, out);
  if (out < 0.0) fail("`" + key + "` must be >= 0");
}

void Params::take_count(const std::string& key, std::size_t& out) {
  std::string raw;
  std::uint64_t v = 0;
  if (!take_raw(key, raw)) return;
  if (!parse_index(raw, SIZE_MAX, v) || v == 0) {
    fail("`" + key + "` must be a positive integer, got `" + raw + "`");
    return;
  }
  out = static_cast<std::size_t>(v);
}

bool Params::take_index_u64(const std::string& key, std::uint64_t max,
                            std::uint64_t& out) {
  std::string raw;
  if (!take_raw(key, raw)) return false;
  if (!parse_index(raw, max, out)) {
    fail("`" + key + "` must be an integer in [0, " + std::to_string(max) +
         "], got `" + raw + "`");
    return false;
  }
  return true;
}

void Params::take_switch(const std::string& key, bool& out) {
  std::string raw;
  if (take_raw(key, raw) && !parse_switch(raw, out)) {
    fail("`" + key + "` must be on/off/true/false/1/0, got `" + raw + "`");
  }
}

void Params::reject_leftovers() {
  if (values_.empty()) return;
  fail("unknown key `" + values_.begin()->first + "`" +
       (kind_.empty() ? "" : " for `" + kind_ + "`"));
}

void Params::parse_items(const std::string& text, const std::string& whole) {
  if (std::count(text.begin(), text.end(), '"') % 2 != 0) {
    fail("unterminated quote in `" + whole + "`");
    return;
  }
  for (const std::string& item : split_outside_quotes(text, ",")) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      fail("bad token `" + item + "` in `" + whole + "`");
      return;
    }
    const std::string key = item.substr(0, eq);
    if (!valid_name(key)) {
      fail("bad key `" + key + "` in `" + whole + "`");
      return;
    }
    if (!values_.emplace(key, unquote(item.substr(eq + 1))).second) {
      fail("duplicate key `" + key + "` in `" + whole + "`");
      return;
    }
  }
}

Params parse_clause(const std::string& text, const std::string& language) {
  Params params(language);
  const auto colon = text.find(':');
  params.kind_ = text.substr(0, colon);
  if (!valid_name(params.kind_)) {
    params.fail("bad kind name in `" + text + "`");
  } else if (colon != std::string::npos) {
    params.parse_items(text.substr(colon + 1), text);
  }
  return params;
}

Params parse_list(const std::string& text, const std::string& language) {
  Params params(language);
  params.parse_items(text, text);
  return params;
}

}  // namespace safe::spec
