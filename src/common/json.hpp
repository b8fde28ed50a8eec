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
#pragma once

#include <algorithm>
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

  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError(std::string(context_) + " JSON, byte " + std::to_string(pos_) + ": " +
                      what);
  }

  /// The next non-blank byte, not consumed ('\0' at the end).
  char peek() {
    while (pos_ < s_.size() && is_blank(s_[pos_])) ++pos_;
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
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
      const std::size_t stop = s_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) fail("unterminated string");
      out.append(s_.data() + pos_, stop - pos_);
      pos_ = stop + 1;
      if (s_[stop] == '"') return;
      out += read_escape();
    }
  }

  /// A true, false, null or number, in its raw spelling.
  std::string_view read_scalar() {
    peek();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && is_scalar_char(s_[pos_])) ++pos_;
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.empty()) fail("expected a value");
    if (tok != "true" && tok != "false" && tok != "null" && !is_number(tok)) {
      fail("malformed scalar '" + std::string(tok) + "'");
    }
    return tok;
  }

  /// Rejects anything but blanks after the document.
  void finish() {
    peek();
    if (pos_ < s_.size()) fail("trailing bytes after the document");
  }

 private:
  std::string_view read_key() {
    expect('"');
    const std::size_t end = s_.find('"', pos_);
    if (end == std::string_view::npos) fail("unterminated key");
    const std::string_view key = s_.substr(pos_, end - pos_);
    if (key.find('\\') != std::string_view::npos) fail("escaped keys are not supported");
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

  static bool is_blank(char c) { return c == ' ' || c == '\n' || c == '\t' || c == '\r'; }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  static bool is_scalar_char(char c) {
    return is_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '-' ||
           c == '+' || c == '.';
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  static bool is_number(std::string_view t) {
    std::size_t i = 0;
    const auto digits = [&] {
      const std::size_t from = i;
      while (i < t.size() && is_digit(t[i])) ++i;
      return i > from;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i < t.size() && t[i] == '0') ++i;
    else if (!digits()) return false;
    if (i < t.size() && t[i] == '.' && (++i, !digits())) return false;
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  std::string_view s_;
  const char* context_;
  std::size_t pos_ = 0;
};

}  // namespace smartnoc
