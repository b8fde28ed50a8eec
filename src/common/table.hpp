// Plain-text table printer used by the bench programs to emit paper-style
// rows, and the project's one RFC-4180 CSV quoter. Columns are sized to
// content; numbers are formatted by the caller so each table controls its
// own precision.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace smartnoc {

/// RFC-4180 quoting for a free-text CSV field: phase names from user
/// scenario files and table cells may contain commas, quotes or newlines.
inline std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells) {
    if (cells.size() != header_.size()) {
      cells.resize(header_.size());
    }
    rows_.push_back(std::move(cells));
  }

  /// Renders with a header rule, e.g.
  ///   App      Mesh   SMART
  ///   -------  -----  -----
  ///   VOPD     9.21   1.43
  std::string str() const {
    std::vector<std::size_t> w(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size(); ++c) w[c] = std::max(w[c], r[c].size());
    }
    std::string out;
    auto emit = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        out += r[c];
        if (c + 1 < r.size()) out.append(w[c] - r[c].size() + 2, ' ');
      }
      out += '\n';
    };
    emit(header_);
    std::vector<std::string> rule;
    rule.reserve(header_.size());
    for (auto width : w) rule.emplace_back(width, '-');
    emit(rule);
    for (const auto& r : rows_) emit(r);
    return out;
  }

  void print() const { std::fputs(str().c_str(), stdout); }

  /// The header and rows as CSV, every cell through csv_field.
  std::string csv() const {
    std::string out;
    auto emit = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        if (c > 0) out += ',';
        out += csv_field(r[c]);
      }
      out += '\n';
    };
    emit(header_);
    for (const auto& r : rows_) emit(r);
    return out;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// snprintf-based formatting helper (std::format is unavailable in GCC 12's
/// libstdc++; this keeps benches terse without iostream manipulators).
inline std::string strf(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

inline std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace smartnoc
