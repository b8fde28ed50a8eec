#include "report.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/float_io.hpp"

namespace bench_report {

// --- Histogram ---------------------------------------------------------------

void Histogram::add(std::uint64_t ns) {
  std::size_t idx;
  if (ns < kSubBuckets) {
    idx = static_cast<std::size_t>(ns);
  } else {
    const int octave = std::bit_width(ns) - 1;  // >= 6
    const int shift = octave - 6;
    idx = kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets +
          static_cast<std::size_t>((ns >> shift) & (kSubBuckets - 1));
  }
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  buckets_[idx] += 1;
  count_ += 1;
  sum_ns_ += static_cast<double>(ns);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto want = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < want) continue;
    if (i < kSubBuckets) return static_cast<double>(i);
    // Bucket i covers [(64 + sub) << shift, (65 + sub) << shift): report
    // its midpoint.
    const std::size_t shift = (i - kSubBuckets) / kSubBuckets;
    const std::size_t sub = (i - kSubBuckets) % kSubBuckets;
    const double lo = static_cast<double>((kSubBuckets + sub) << shift);
    return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Spans -------------------------------------------------------------------

std::uint64_t SpanLog::open() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::close(std::uint64_t id, const std::string& name, const char* category,
                    Clock::time_point start, Clock::time_point end, std::uint64_t parent,
                    int lane) {
  const double start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({id, parent, name, category, start_us, dur_us, lane});
}

std::uint64_t SpanLog::add(const std::string& name, const char* category,
                           Clock::time_point start, Clock::time_point end,
                           std::uint64_t parent, int lane) {
  const std::uint64_t id = open();
  close(id, name, category, start, end, parent, lane);
  return id;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file '" + path + "'");
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << json_quote(s.name) << ",\"cat\":\"" << s.category
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":" << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.dur_us) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- JSON --------------------------------------------------------------------

const Json* Json::get(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = get(key);
  if (!v) throw std::runtime_error("JSON: missing key '" + key + "'");
  return *v;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json document() {
    Json v = value();
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON: " + why + " at offset " + std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' || s_[i_] == '\t'))
      ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  Json value() {
    if (++depth_ > 64) fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::Kind::Object;
      if (!eat('}')) {
        do {
          ws();
          std::string key = string_body();
          expect(':');
          v.object.emplace_back(std::move(key), value());
        } while (eat(','));
        expect('}');
      }
    } else if (c == '[') {
      ++i_;
      v.kind = Json::Kind::Array;
      if (!eat(']')) {
        do {
          v.array.push_back(value());
        } while (eat(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = Json::Kind::String;
      v.string = string_body();
    } else if (literal("true")) {
      v.kind = Json::Kind::Bool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Json::Kind::Bool;
    } else if (literal("null")) {
      v.kind = Json::Kind::Null;
    } else {
      const std::size_t start = i_;
      while (i_ < s_.size() && std::string("+-0123456789.eE").find(s_[i_]) != std::string::npos)
        ++i_;
      if (start == i_) fail("unexpected character");
      v.kind = Json::Kind::Number;
      v.number = smartnoc::parse_double_rt(s_.substr(start, i_ - start), "JSON number");
    }
    --depth_;
    return v;
  }

  std::string string_body() {
    if (i_ >= s_.size() || s_[i_] != '"') fail("expected string");
    ++i_;
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          const unsigned cp = static_cast<unsigned>(std::stoul(s_.substr(i_, 4), nullptr, 16));
          i_ += 4;
          if (cp > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return JsonParser(text).document(); }

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) { return smartnoc::format_double_rt(v); }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read '" + path + "'");
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

double peak_rss_mb() {
  // VmHWM is this program image's own high-water mark. getrusage's ru_maxrss
  // would also carry the launching process's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string expected_digest(const std::string& file, const std::string& workload) {
  std::istringstream in(read_file(file));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp != std::string::npos && line.compare(0, sp, workload) == 0) return line.substr(sp + 1);
  }
  return "";
}

}  // namespace bench_report
