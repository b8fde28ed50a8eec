// Exposition formats over a MetricsRegistry, plus the server heartbeat.
//
// Two exporters, one snapshot: Prometheus text format (for scraping - the
// node_exporter textfile collector ingests the file the server writes) and a
// JSON snapshot (for scripts). Both render numbers through the same rules:
// integral values as plain integers, everything else via the shortest
// round-trip rendering of common/float_io.hpp, so a written snapshot parses
// back bit-exactly.
//
// Wall-clock values flow through here by design - which is exactly why none
// of these artifacts may ever feed back into results.csv/json (the explorer
// tables stay pure functions of their sweep specs; pinned by tests).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace smartnoc::obs {

/// Prometheus text exposition (version 0.0.4): one `# HELP` / `# TYPE`
/// header per family (families grouped, first-registration order), one
/// sample line per instrument, histograms in cumulative `_bucket{le=...}` /
/// `_sum` / `_count` form.
std::string to_prometheus(const MetricsRegistry& reg);

/// JSON snapshot: `{"metrics": [...]}` with one object per instrument in
/// registration order (name, optional label, type, and value or histogram
/// buckets/sum/count).
std::string to_json(const MetricsRegistry& reg);

/// Integral metric values render as plain integers ("24"), everything else
/// as the shortest round-trip decimal ("0.123"). Shared by both exporters.
std::string format_metric_value(double v);

/// The live-status file a serving loop drops next to its queue
/// (heartbeat.json): enough for `explorer status --watch` to render
/// progress and ETA without talking to the server process.
struct Heartbeat {
  long long pid = 0;
  double uptime_seconds = 0.0;   ///< server wall time since start
  std::string job;               ///< job being executed ("" when idle)
  std::uint64_t points_done = 0;
  std::uint64_t points_total = 0;
  double points_per_sec = 0.0;   ///< completion rate over the current job
  double eta_seconds = 0.0;      ///< remaining points / rate (0 when idle)

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Single-line JSON object; doubles round-trip bit-exactly.
std::string to_json(const Heartbeat& hb);
/// Strict inverse of to_json(Heartbeat). Throws ConfigError on garbage.
Heartbeat heartbeat_from_json(const std::string& json);

}  // namespace smartnoc::obs
