// Shared token parsing for the text front-ends (sweep files, scenario
// files, CLI flags). All parsers are strict - trailing garbage throws, so
// a typo'd separator cannot silently truncate a value - and throw
// ConfigError naming the offending field.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace smartnoc {

inline std::string trim_token(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// The pieces of `s` between `sep`s: n separators give n + 1 pieces.
inline std::vector<std::string> split_token(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t p = s.find(sep, start);
    out.push_back(s.substr(start, p == std::string::npos ? p : p - start));
    if (p == std::string::npos) break;
    start = p + 1;
  }
  return out;
}

inline std::string lower_token(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

inline int parse_int_token(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s + "'");
  }
}

inline double parse_double_token(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s + "'");
  }
}

inline std::uint64_t parse_u64_token(const std::string& s, const std::string& what) {
  // A leading '-' would wrap through strtoull to a huge cycle count (a
  // "warmup = -1" sweep would spin for ~1.8e19 cycles); reject it up front.
  try {
    if (s.empty() || s[0] == '-') throw std::invalid_argument(s);
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s +
                      "' (expected a non-negative integer)");
  }
}

inline bool parse_bool_token(const std::string& s, const std::string& what) {
  const std::string t = lower_token(s);
  if (t == "true" || t == "1" || t == "yes") return true;
  if (t == "false" || t == "0" || t == "no") return false;
  throw ConfigError("malformed " + what + ": '" + s + "' (expected a boolean)");
}

}  // namespace smartnoc
