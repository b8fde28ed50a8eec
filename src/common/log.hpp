// Minimal leveled logger. Deliberately tiny: the simulator's primary outputs
// are the stats/power reports; logging exists for debugging presets and
// traffic, and is compiled in but off by default.
//
// The initial level comes from the SMARTNOC_LOG environment variable -
// error | warn | info | debug | trace, or the numeric 0..4 - read once on
// first use; Log::level() stays assignable for programmatic override.
//
// The SMARTNOC_LOG_* macros check the level before evaluating their
// arguments, so a disabled level costs one branch - callers may freely log
// values that are expensive to compute.
//
// Every message is prefixed with its wall-clock offset from the first log
// call and, when a driver has published one (sim::Session does), the
// current *simulated* cycle - so interleaved output distinguishes "late in
// wall time" from "late in simulated time":
//
//   [WARN ] [wall +1.204s | cycle 48128] telemetry: ...
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace smartnoc {

enum class LogLevel : int { Error = 0, Warn = 1, Info = 2, Debug = 3, Trace = 4 };

class Log {
 public:
  static LogLevel& level() {
    static LogLevel lvl = level_from_env();
    return lvl;
  }

  static bool enabled(LogLevel lvl) { return static_cast<int>(lvl) <= static_cast<int>(level()); }

  /// Where messages go: stderr unless reassigned (tests point it at a
  /// tmpfile to capture output).
  static std::FILE*& stream() {
    static std::FILE* out = stderr;
    return out;
  }

  /// Simulated-time context for message prefixes: the driver's current
  /// cycle count, or -1 when no simulation is running (no cycle prefix).
  /// sim::Session keeps this pointed at its session clock. Per thread:
  /// sweep workers each drive their own Session.
  static long long& sim_cycle() {
    static thread_local long long cycle = -1;
    return cycle;
  }

  /// Parses a SMARTNOC_LOG value: a level name (case-insensitive) or the
  /// digit 0..4. Sets *ok accordingly; returns Warn for unparsable input.
  static LogLevel parse_level(const char* text, bool* ok = nullptr) {
    if (ok != nullptr) *ok = true;
    if (text != nullptr && text[0] >= '0' && text[0] <= '4' && text[1] == '\0') {
      return static_cast<LogLevel>(text[0] - '0');
    }
    struct Name {
      const char* name;
      LogLevel lvl;
    };
    static constexpr Name kNames[] = {{"error", LogLevel::Error},
                                      {"warn", LogLevel::Warn},
                                      {"info", LogLevel::Info},
                                      {"debug", LogLevel::Debug},
                                      {"trace", LogLevel::Trace}};
    for (const Name& n : kNames) {
      const char* a = text;
      const char* b = n.name;
      while (a != nullptr && *a != '\0' && *b != '\0') {
        const char ca = *a >= 'A' && *a <= 'Z' ? static_cast<char>(*a - 'A' + 'a') : *a;
        if (ca != *b) break;
        ++a;
        ++b;
      }
      if (a != nullptr && *a == '\0' && *b == '\0') return n.lvl;
    }
    if (ok != nullptr) *ok = false;
    return LogLevel::Warn;
  }

#if defined(__GNUC__)
  __attribute__((format(printf, 2, 3)))
#endif
  static void write(LogLevel lvl, const char* fmt, ...) {
    if (!enabled(lvl)) return;
    static const char* names[] = {"ERROR", "WARN ", "INFO ", "DEBUG", "TRACE"};
    std::FILE* out = stream();
    std::fprintf(out, "[%s] [wall +%.3fs", names[static_cast<int>(lvl)], wall_seconds());
    if (sim_cycle() >= 0) std::fprintf(out, " | cycle %lld", sim_cycle());
    std::fputs("] ", out);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(out, fmt, args);
    va_end(args);
    std::fputc('\n', out);
  }

 private:
  /// Wall-clock seconds since the first log call (monotonic).
  static double wall_seconds() {
    static const auto start = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  static LogLevel level_from_env() {
    const char* env = std::getenv("SMARTNOC_LOG");
    if (env == nullptr || *env == '\0') return LogLevel::Warn;
    bool ok = false;
    const LogLevel lvl = parse_level(env, &ok);
    if (!ok) {
      std::fprintf(stream(),
                   "[WARN ] SMARTNOC_LOG='%s' is not a level "
                   "(error|warn|info|debug|trace or 0-4); keeping 'warn'\n",
                   env);
    }
    return lvl;
  }
};

}  // namespace smartnoc

// Level-guarded at the call site: arguments of a disabled level are never
// evaluated (write() re-checks, but by then the args would have run).
#define SMARTNOC_LOG_AT(lvl, ...)                                     \
  do {                                                                \
    if (::smartnoc::Log::enabled(lvl)) {                              \
      ::smartnoc::Log::write(lvl, __VA_ARGS__);                       \
    }                                                                 \
  } while (0)
#define SMARTNOC_LOG_INFO(...) SMARTNOC_LOG_AT(::smartnoc::LogLevel::Info, __VA_ARGS__)
#define SMARTNOC_LOG_WARN(...) SMARTNOC_LOG_AT(::smartnoc::LogLevel::Warn, __VA_ARGS__)
#define SMARTNOC_LOG_DEBUG(...) SMARTNOC_LOG_AT(::smartnoc::LogLevel::Debug, __VA_ARGS__)
