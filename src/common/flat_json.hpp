// A reader for flat JSON records: objects whose members are strings,
// numbers and booleans, as record_to_json (explore/result_sink) and the
// serving heartbeat (obs/export) write them. Keys are read in place, with
// no allocation, and numbers parse strictly through from_chars, so a record
// written with the shortest round-trip doubles reloads bit-identically.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdlib>
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

class FlatJsonReader {
 public:
  explicit FlatJsonReader(std::string_view text) : s_(text) {}

  void expect(char c) {
    if (!consume(c)) {
      throw ConfigError("JSON parse error at byte " + std::to_string(pos_) + ": expected '" +
                        c + "'");
    }
  }

  bool consume(char c) {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// An object key, in place: record keys never contain escapes.
  std::string_view read_key() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') ++pos_;
    const std::string_view key = s_.substr(start, pos_ - start);
    expect('"');
    return key;
  }

  void read_string(std::string& out) {
    expect('"');
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw ConfigError("JSON: truncated \\u escape");
            const std::string hex(s_.substr(pos_, 4));
            c = static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = esc; break;  // \" \\ \/
        }
      }
      out += c;
    }
    expect('"');
  }

  /// A number or boolean, in place (empty when the value is missing).
  std::string_view read_scalar() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' && s_[pos_] != ']' &&
           !std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace smartnoc
