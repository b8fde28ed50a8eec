// Shared pieces of bench_report: what one workload run reports, timing
// statistics, the in-memory span log, and a small JSON reader for the
// result files and BENCHMARK.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace bench_report {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// One measured value; `n` is the number of samples behind it (1 for a
/// count or a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 1;
};

/// Command-line inputs of one workload run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;       ///< scratch space: sweep caches, span files
  std::string expected_file;  ///< pinned seed-1 digests
};

/// What one run of one workload reports. Every workload fills every metric
/// it can measure; the caller emits the ones BENCHMARK.json lists.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit, std::uint64_t n = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Nanosecond timings aggregated into log buckets (64 per octave, so a
/// quantile is within ~1.1% of the exact sample) instead of one stored
/// value per call: per-tick timing on an 8x8 mesh is millions of samples.
class Histogram {
 public:
  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  double sum_ns() const { return sum_ns_; }
  /// q in [0,1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBuckets = 64;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// The quantile of per-operation times that rates are computed from. The
/// host is shared: neighbours slow whole stretches of operations, which moves
/// a median by tens of percent between runs minutes apart, while the fast
/// tail keeps tracking the simulator's own cost.
constexpr double kRateQuantile = 0.05;

/// Linear-interpolated quantile of a sample (q in [0,1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Times set-up in rounds of 5 repetitions: one round before measuring and,
/// while a repetition takes under 10 ms, one more round every 0.25 s between
/// measured operations. The host is shared, and which core a process lands
/// on slows a burst of set-ups by up to 1.5x; the median of rounds spread
/// over the whole run is steadier than the median of one burst.
class SetupTimer {
 public:
  /// Runs `rep` 5 times; each call does one set-up and returns its seconds.
  template <typename Rep>
  void round(Rep&& rep) {
    for (int i = 0; i < 5; ++i) samples_.push_back(rep());
    if (!last_round_) cheap_ = median(samples_) < 0.01;
    last_round_ = Clock::now();
  }
  /// True when another round should run before the next measured operation.
  bool due() const { return cheap_ && seconds_between(*last_round_, Clock::now()) >= 0.25; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  std::optional<Clock::time_point> last_round_;
  bool cheap_ = false;
};

/// Spans kept in memory and written as chrome://tracing JSON at the end of
/// a run. Thread-safe; bounded so a long traced run cannot grow without
/// limit (dropped spans are counted and noted in the file).
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200'000;

  SpanLog() : epoch_(Clock::now()) {}

  /// Records [start, end) on `lane` and returns the span's id.
  /// `parent` is the id of the span that caused this one (0 = none).
  std::uint64_t add(const std::string& name, const char* category, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0, int lane = 0);
  /// Reserves an id for a span whose extent is recorded later with `close`,
  /// so children can name it as their parent before it ends.
  std::uint64_t open();
  void close(std::uint64_t id, const std::string& name, const char* category,
             Clock::time_point start, Clock::time_point end, std::uint64_t parent = 0,
             int lane = 0);
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id, parent;
    std::string name;
    const char* category;
    double start_us, dur_us;
    int lane;
  };
  mutable std::mutex mu_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Minimal JSON value and strict parser (objects, arrays, strings, numbers,
/// true/false/null) for BENCHMARK.json and bench_report's own result files.
struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  ///< in file order

  /// Member lookup; throws std::runtime_error when absent or not an object.
  const Json& at(const std::string& key) const;
  const Json* get(const std::string& key) const;
};
Json parse_json(const std::string& text);
std::string json_quote(const std::string& s);
/// Shortest round-trip rendering, so a value keeps all its digits.
std::string json_number(double v);

std::string read_file(const std::string& path);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// --- Workloads (kernel.cpp, sweep.cpp) ---------------------------------------

bool is_kernel_workload(const std::string& name);
bool is_sweep_workload(const std::string& name);
RunReport run_kernel_workload(const RunOptions& opt);
RunReport run_sweep_workload(const RunOptions& opt);

/// Looks up `workload`'s pinned seed-1 digest line (the text after the
/// name) in the expected file; empty when absent.
std::string expected_digest(const std::string& file, const std::string& workload);

/// `bench_report compare A/*.json B/*.json` (compare.cpp). Returns the exit
/// code: 0 when no metric is worse, 1 on a regression, 2 on bad input.
int compare_main(const std::vector<std::string>& files, const std::string& benchmark_json);

}  // namespace bench_report
