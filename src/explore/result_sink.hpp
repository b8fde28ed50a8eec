// Result collection for exploration runs: the per-run record, the
// in-memory table the executor fills, serialization (CSV and JSON, both
// round-trippable) and the Pareto-frontier query.
//
// Records never contain wall-clock measurements: a sweep's exported table
// is a pure function of its SweepSpec, so the 1-thread and N-thread runs
// of the same sweep serialize byte-identically (pinned by tests).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smartnoc::explore {

/// One completed (or failed) run of the matrix. Echoes the point's
/// configuration so an exported table is self-describing. Member order is
/// the CSV/JSON column order: the column table in result_sink.cpp lists
/// each member once, and every reader and writer walks it.
struct RunRecord {
  // --- Point echo -------------------------------------------------------
  std::uint64_t index = 0;
  int width = 0, height = 0;
  int flit_bits = 0;
  int hpc_max = 0;            ///< effective value (derived if the axis said 0)
  double injection = 0.0;
  std::string workload;
  double fault_rate = 0.0;
  /// Online fault-schedule token (fault_engine grammar; "none" = no events).
  std::string fault_schedule = "none";
  std::string design;
  std::uint64_t seed = 0;

  // --- Outcome ----------------------------------------------------------
  /// False when the run failed (bad config, exception) or did not drain
  /// within the timeout. Failed rows keep their echo columns but report no
  /// latency/power numbers (they would be partial and misleading).
  bool ok = false;
  std::string error;          ///< human-readable cause when !ok

  // --- Measurements (valid only when ok) --------------------------------
  int flows = 0;
  int dropped_flows = 0;      ///< flows unroutable around faults
  std::uint64_t packets = 0;  ///< delivered in the measurement window
  double avg_net_latency = 0.0;
  double avg_total_latency = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  double throughput_ppc = 0.0;  ///< packets delivered per cycle (whole mesh)
  double power_mw = 0.0;
  double area_mm2 = 0.0;        ///< router area, all tiles

  // --- Degradation (all zero unless faults fired during the run) ---------
  std::uint64_t packets_offered = 0;        ///< offered at the sources
  std::uint64_t packets_dropped = 0;        ///< retry budget spent / flow failed
  std::uint64_t packets_retransmitted = 0;  ///< end-to-end retries after faults
  std::uint64_t flows_rerouted = 0;         ///< routes recomputed online
  std::uint64_t flows_failed = 0;           ///< destinations left unreachable

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// The in-memory result table. Pre-sized to the run matrix; each executor
/// job writes its own slot, so no locking is needed and row order is the
/// matrix order regardless of completion order.
class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::size_t n) : rows_(n) {}

  void resize(std::size_t n) { rows_.resize(n); }
  void set(std::size_t i, RunRecord rec) { rows_.at(i) = std::move(rec); }
  void add(RunRecord rec) { rows_.push_back(std::move(rec)); }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const RunRecord& at(std::size_t i) const { return rows_.at(i); }
  const std::vector<RunRecord>& rows() const { return rows_; }

  std::size_t ok_count() const;
  std::size_t failed_count() const { return size() - ok_count(); }

  /// CSV with a fixed header row. Doubles use the shortest round-trip
  /// rendering (common/float_io.hpp) so parsing recovers them bit-exactly;
  /// strings are quoted and escaped.
  std::string to_csv() const;
  static ResultTable from_csv(const std::string& text);

  /// JSON array of row objects (same fidelity guarantees as CSV).
  std::string to_json() const;
  static ResultTable from_json(const std::string& text);

  /// Indices of the rows on the Pareto frontier when simultaneously
  /// minimizing (avg_net_latency, power_mw, area_mm2). Only ok rows
  /// compete; returned in row order.
  std::vector<std::size_t> pareto_frontier() const;

  /// Human-readable summary table (TextTable format used by the benches).
  /// Pareto rows are starred; failed rows show the error instead of stats.
  std::string summary() const;

 private:
  std::vector<RunRecord> rows_;
};

/// One record as a single-line JSON object - the unit the serving cache and
/// job checkpoints persist (ResultTable::to_json/from_json are built on the
/// same functions, so the formats cannot drift apart). Round-trip is
/// bit-exact for every field, doubles included.
std::string record_to_json(const RunRecord& rec);
RunRecord record_from_json(std::string_view json);

}  // namespace smartnoc::explore
