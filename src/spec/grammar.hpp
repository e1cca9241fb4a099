// The grammar kernel behind every spec mini-language (DESIGN.md §14,
// "Spec grammar kernel").
//
// Six languages select the system's axes from strings: attack, detector,
// platoon, fault, chaos and campaign specs. They share one set of rules,
// and this module is the only place those rules live:
//
//   clause := kind [":" list]             e.g. "chi2:threshold=9.21,window=16"
//   list   := key "=" value ("," key "=" value)*   e.g. "n=8,attacked=3"
//
//   - kind and key names are [A-Za-z0-9_]+; a key may appear once.
//   - Commas inside double quotes do not split; the quotes are stripped from
//     the value, so a nested spec can carry its own commas.
//   - Empty list items are skipped ("a=1,,b=2").
//   - A number is finite: "inf", "nan" and out-of-range literals are errors.
//   - A count is a positive integer; an index a non-negative integer with an
//     inclusive bound. Neither accepts a sign of '-' or trailing junk.
//   - A switch is one of on/off, true/false, 1/0.
//   - A sub-spec value "none" means "" (inherit / nothing).
//
// Kind-level languages (attack, detect) report through a Check that
// separates a grammar error from a well-formed spec naming an unknown kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace safe::spec {

enum class Status {
  kOk = 0,
  kMalformed,    ///< grammar error, bad value, or unknown key
  kUnknownKind,  ///< well-formed, but the kind is not registered
};

struct Check {
  Status status = Status::kOk;
  std::string message;  ///< empty on kOk

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  /// Throws std::invalid_argument carrying `message` unless ok().
  void throw_if_failed() const;
};

/// "none" -> "", anything else unchanged: how a sub-spec says "inherit".
[[nodiscard]] std::string none_as_empty(const std::string& value);

/// Splits `text` at every character of `seps` that sits outside double
/// quotes. With `comments`, an unquoted '#' drops the rest of its line.
/// Parts keep their whitespace and quotes, and empty parts are kept.
[[nodiscard]] std::vector<std::string> split_outside_quotes(
    const std::string& text, const std::string& seps, bool comments = false);

/// Strips one pair of enclosing double quotes, if present.
[[nodiscard]] std::string unquote(const std::string& s);

// Whole-token value parsers; false on anything the rules above reject.
[[nodiscard]] bool parse_number(const std::string& raw, double& out);
[[nodiscard]] bool parse_index(const std::string& raw, std::uint64_t max,
                               std::uint64_t& out);
[[nodiscard]] bool parse_switch(const std::string& raw, bool& out);

/// The key/value pairs of one parsed clause or list, read off by typed
/// take_* calls. Each take consumes its key, so reject_leftovers() can name
/// an unknown one. The first failure sticks: later calls do nothing, and
/// check() reports it as "<language> spec: <why>". An absent key leaves
/// the output (its default) untouched.
class Params {
 public:
  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] bool ok() const { return check_.ok(); }
  [[nodiscard]] const Check& check() const { return check_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  /// Records a malformed-spec failure (if none is recorded yet).
  void fail(const std::string& why);

  void take_number(const std::string& key, double& out);
  void take_positive(const std::string& key, double& out);      // > 0
  void take_non_negative(const std::string& key, double& out);  // >= 0
  void take_count(const std::string& key, std::size_t& out);
  void take_switch(const std::string& key, bool& out);
  /// Non-negative integer <= max (max must itself be non-negative).
  template <typename Int>
  void take_index(const std::string& key, std::type_identity_t<Int> max,
                  Int& out) {
    static_assert(std::is_integral_v<Int>);
    std::uint64_t v = 0;
    if (take_index_u64(key, static_cast<std::uint64_t>(max), v)) {
      out = static_cast<Int>(v);
    }
  }
  /// The raw string value; false when the key is absent (or after a
  /// failure).
  bool take_raw(const std::string& key, std::string& out);
  /// Fails on the first key no take_* consumed.
  void reject_leftovers();

 private:
  friend Params parse_clause(const std::string&, const std::string&);
  friend Params parse_list(const std::string&, const std::string&);

  explicit Params(std::string language) : language_(std::move(language)) {}
  bool take_index_u64(const std::string& key, std::uint64_t max,
                      std::uint64_t& out);
  void parse_items(const std::string& text, const std::string& whole);

  std::string language_;
  std::string kind_;
  std::map<std::string, std::string> values_;
  Check check_;
};

/// Parses `kind[:k=v,...]`. A grammar error leaves the result !ok().
[[nodiscard]] Params parse_clause(const std::string& text,
                                  const std::string& language);

/// Parses a kind-less `k=v,...` list. A grammar error leaves it !ok().
[[nodiscard]] Params parse_list(const std::string& text,
                                const std::string& language);

}  // namespace safe::spec
