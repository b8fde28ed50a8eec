// The one JSON reader and escaper in the project. JsonReader is a streaming
// cursor: the caller's grammar drives it member by member, so no document
// tree is built. Three front-ends read through it:
//   - parse_scenario_json (sim/scenario.cpp): nested objects and arrays;
//   - record_from_json and ResultTable::from_json (explore/result_sink.cpp):
//     flat result records, decoded on every warm-cache hit;
//   - heartbeat_from_json (obs/export.cpp).
// Rules, the same for all of them:
//   - Strings decode every JSON escape: \" \\ \/ \b \f \n \r \t, and \uXXXX
//     up to \u00ff as one byte. An unknown escape, a non-hex or truncated \u,
//     a \u above \u00ff and an unterminated string are errors.
//   - A bare scalar is true, false, null or a JSON number spelling. It is
//     returned raw, so a 64-bit seed survives; the caller converts it.
//   - Object keys are returned in place, with no allocation; they may not
//     hold escapes (no key any front-end knows does).
//   - Blanks between tokens are JSON's four: space, \t, \n and \r.
//   - finish() rejects bytes after the document.
// Every error is a ConfigError "<context> JSON, byte N: ...".
// Each token is read in one pass over its bytes, with one table lookup per
// byte; a scalar's grammar is checked in the pass that finds its end. A
// warm cache hit decodes a whole record this way.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace smartnoc {

/// Parses all of `s` as a number of type T; throws ConfigError naming `what`.
template <class T>
void parse_number(std::string_view s, T& v, const char* what) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    throw ConfigError(std::string("malformed ") + what + ": '" + std::string(s) + "'");
  }
}

/// Escapes a string for a JSON string literal: named escapes for the common
/// controls, \u00xx for the rest. Every JSON emitter in the project uses it.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonReader {
 public:
  /// `context` names the document in errors ("scenario", "heartbeat", ...).
  JsonReader(std::string_view text, const char* context) : s_(text), context_(context) {}

  [[noreturn, gnu::cold, gnu::noinline]] void fail(std::string_view what) const {
    throw ConfigError(std::string(context_) + " JSON, byte " + std::to_string(pos_) + ": " +
                      std::string(what));
  }

  /// The next non-blank byte, not consumed ('\0' at the end).
  char peek() {
    while (pos_ < s_.size() && is(s_[pos_], kBlank)) ++pos_;
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail_expected(c);
  }

  /// Reads an object, calling `member(key)` after each key's ':'; the
  /// callback must read the member's value.
  template <class F>
  void read_object(F&& member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string_view key = read_key();
      expect(':');
      member(key);
    } while (consume(','));
    expect('}');
  }

  /// Reads an array, calling `element()` to read each element.
  template <class F>
  void read_array(F&& element) {
    expect('[');
    if (consume(']')) return;
    do {
      element();
    } while (consume(','));
    expect(']');
  }

  void read_string(std::string& out) {
    expect('"');
    out.clear();
    while (true) {
      const std::size_t stop = skip_while(pos_, kPlain);
      if (stop == s_.size()) fail("unterminated string");
      out.append(s_.data() + pos_, stop - pos_);
      pos_ = stop + 1;
      if (s_[stop] == '"') return;
      out += read_escape();
    }
  }

  /// A true, false, null or number, in its raw spelling. The grammar is
  /// checked in the pass that finds the token's end; scalar_error only
  /// builds the message for a token that fails it.
  std::string_view read_scalar() {
    peek();
    const std::size_t start = pos_;
    const std::size_t end = scan_scalar(start);
    if (end == 0) scalar_error(start);
    pos_ = end;
    return s_.substr(start, end - start);
  }

  /// Rejects anything but blanks after the document.
  void finish() {
    peek();
    if (pos_ < s_.size()) fail("trailing bytes after the document");
  }

 private:
  // Byte classes, one table lookup per byte scanned.
  enum : unsigned char { kBlank = 1, kDigit = 2, kScalar = 4, kPlain = 8 };

  static constexpr auto kClasses = [] {
    std::array<unsigned char, 256> t{};
    for (int c = 0; c < 256; ++c) {
      if (c != '"' && c != '\\') t[c] |= kPlain;  // no string or key ends or escapes here
    }
    for (const char c : {' ', '\t', '\n', '\r'}) t[static_cast<unsigned char>(c)] |= kBlank;
    for (int c = '0'; c <= '9'; ++c) t[c] |= kDigit | kScalar;
    for (int c = 'a'; c <= 'z'; ++c) t[c] |= kScalar;
    for (int c = 'A'; c <= 'Z'; ++c) t[c] |= kScalar;
    for (const char c : {'-', '+', '.'}) t[static_cast<unsigned char>(c)] |= kScalar;
    return t;
  }();

  static bool is(char c, unsigned char cls) {
    return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
  }

  /// The first byte at or after `i` outside `cls`, or s_.size().
  std::size_t skip_while(std::size_t i, unsigned char cls) const {
    while (i < s_.size() && is(s_[i], cls)) ++i;
    return i;
  }

  [[noreturn, gnu::cold, gnu::noinline]] void fail_expected(char c) const {
    fail(std::string("expected '") + c + "'");
  }

  /// Fails for a key whose scan stopped at `end`: a backslash or the end.
  [[noreturn, gnu::cold, gnu::noinline]] void key_error(std::size_t end) const {
    if (s_.find('"', end) == std::string_view::npos) fail("unterminated key");
    fail("escaped keys are not supported");
  }

  std::string_view read_key() {
    expect('"');
    const std::size_t end = skip_while(pos_, kPlain);
    if (end == s_.size() || s_[end] == '\\') key_error(end);
    const std::string_view key = s_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return key;
  }

  char read_escape() {
    if (pos_ >= s_.size()) fail("unterminated string");
    const char e = s_[pos_++];
    switch (e) {
      case '"':
      case '\\':
      case '/': return e;
      case 'b': return '\b';
      case 'f': return '\f';
      case 'n': return '\n';
      case 'r': return '\r';
      case 't': return '\t';
      case 'u': {
        unsigned code = 0;
        const char* const first = s_.data() + pos_;
        const char* const last = s_.data() + std::min(pos_ + 4, s_.size());
        if (last - first < 4 || std::from_chars(first, last, code, 16).ptr != last) {
          fail("malformed \\u escape");
        }
        // One byte per character: the emitter writes \u only below 0x20.
        if (code > 0xFF) fail("\\u escape beyond \\u00ff is not supported");
        pos_ += 4;
        return static_cast<char>(code);
      }
      default: fail(std::string("unsupported escape '\\") + e + "'");
    }
  }

  /// The end of the scalar token at `i` if the whole run of scalar bytes
  /// there is true, false, null or -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// else 0 (no token ends at byte 0).
  std::size_t scan_scalar(std::size_t i) const {
    const std::size_t n = s_.size();
    const auto ends_at = [&](std::size_t k) { return k < n && is(s_[k], kScalar) ? 0 : k; };
    if (i < n && s_[i] >= 'a') {
      for (const std::string_view word : {"true", "false", "null"}) {
        if (s_.substr(i, word.size()) == word) return ends_at(i + word.size());
      }
      return 0;
    }
    const auto digits = [&] {
      const std::size_t from = i;
      i = skip_while(i, kDigit);
      return i > from;
    };
    if (i < n && s_[i] == '-') ++i;
    if (i < n && s_[i] == '0') ++i;
    else if (!digits()) return 0;
    if (i < n && s_[i] == '.' && (++i, !digits())) return 0;
    if (i < n && (s_[i] == 'e' || s_[i] == 'E')) {
      ++i;
      if (i < n && (s_[i] == '+' || s_[i] == '-')) ++i;
      if (!digits()) return 0;
    }
    return ends_at(i);
  }

  /// Fails for the scalar token at `start` that scan_scalar refused, at
  /// the end of its run of scalar bytes.
  [[noreturn, gnu::cold, gnu::noinline]] void scalar_error(std::size_t start) {
    pos_ = skip_while(start, kScalar);
    if (pos_ == start) fail("expected a value");
    fail("malformed scalar '" + std::string(s_.substr(start, pos_ - start)) + "'");
  }

  std::string_view s_;
  const char* context_;
  std::size_t pos_ = 0;
};

}  // namespace smartnoc
