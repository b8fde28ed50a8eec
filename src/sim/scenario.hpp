// Declarative simulation scenarios: the single entry point that describes
// *every* run of the simulator - from the classic warmup/measure/drain
// protocol to the paper's headline SoC story "run app A, reconfigure the
// SMART fabric, run app B" (Fig. 1) - as one data structure.
//
// A ScenarioSpec is a design + configuration + a sequence of phases. Each
// phase names a workload from the WorkloadRegistry, an injection scale, a
// duration in cycles, and flags: `measure` opens/extends a measurement
// window (stats reset at phase start), `drain` runs with traffic off until
// the network empties, `reconfigure` forces a fabric reconfiguration at the
// phase boundary (it also happens implicitly whenever the workload or
// injection changes). Scenarios serialize to a line-oriented text form and
// to JSON; parse -> serialize -> parse is the identity (pinned by tests).
//
// Session (session.hpp) executes a ScenarioSpec.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/config_fields.hpp"
#include "noc/fault_engine.hpp"

namespace smartnoc::sim {

/// One phase of a scenario.
struct PhaseSpec {
  std::string name;        ///< label for reports ("warmup", "appA", ...)
  std::string workload;    ///< WorkloadRegistry key; "" = inherit previous phase
  double injection = 0.0;  ///< flits/node/cycle (synthetic) or bandwidth
                           ///< multiplier (apps); 0 = inherit (1.0 if first)
  Cycle cycles = 0;        ///< duration; for drain phases 0 = run until
                           ///< drained, bounded by config.drain_timeout
  bool measure = false;    ///< stats window: reset at start, snapshot at end
  bool traffic = true;     ///< generation enabled during the phase
  bool drain = false;      ///< run until the network drains (traffic off)
  bool reconfigure = false;  ///< force a fabric reconfiguration at entry
  /// Per-phase fault-rate *event*: overrides the scenario-level fault rate
  /// for this phase only (exactly -1.0 = inherit; other negatives are
  /// rejected by validate()). A change in the effective rate is applied -
  /// and reverted - at an era boundary: the fabric drains, flows reroute
  /// around the new fault pattern, and the network rebuilds.
  double fault_rate = -1.0;

  friend bool operator==(const PhaseSpec&, const PhaseSpec&) = default;
};

/// Declarative telemetry block: attach a Probe, capture a binary packet
/// trace, and export time series when the run completes (Session::run()
/// flushes automatically; step()-driven callers call flush_telemetry()).
struct TelemetrySpec {
  Cycle epoch_cycles = 0;    ///< sample window; > 0 attaches a Probe
  std::string record_trace;  ///< binary capture path ("" = off). Streamed to
                             ///< disk as format v2 with one era section per
                             ///< reconfiguration - multi-era scenarios record
                             ///< end to end; replay via trace:<file>[@era]
  std::string csv;           ///< epoch time-series CSV export path
  std::string power_csv;     ///< per-epoch power-breakdown CSV export path
                             ///< (time-resolved Fig. 10b; needs epoch_cycles)
  std::string heatmap;       ///< link-utilization heatmap (CSV + ASCII sidecar)
  std::string chrome;        ///< chrome://tracing JSON export path
  std::uint64_t chrome_events = 65536;  ///< raw link-event capture cap

  bool enabled() const {
    return epoch_cycles > 0 || !record_trace.empty() || !power_csv.empty();
  }
  /// The probe keeps the per-epoch activity series (the time-resolved
  /// power input) whenever something consumes it: the power CSV or the
  /// Chrome export's power counter tracks.
  bool power_series() const {
    return epoch_cycles > 0 && (!power_csv.empty() || !chrome.empty());
  }

  friend bool operator==(const TelemetrySpec&, const TelemetrySpec&) = default;
};

/// A complete simulation declaration.
struct ScenarioSpec {
  std::string name = "scenario";
  Design design = Design::Smart;
  NocConfig config;            ///< topology, seed, windows, drain_timeout
  double fault_rate = 0.0;     ///< per-link fault probability (explorer's
                               ///< deterministic pattern, keyed off the seed)
  bool single_config_core = true;   ///< Fig. 1 cost model: stores ride a ring
  Cycle store_issue_cycles = 1;     ///< issue cost per reconfiguration store
  TelemetrySpec telemetry;          ///< observability block (off by default)
  /// Online fault injection: timed events (kill/glitch/stall) applied to
  /// the *live* network mid-phase, no drain, no rebuild. Cycles count
  /// whole-session time, so a schedule is independent of phase layout.
  /// Text form: one `fault_event <token>` line per event; JSON: an array
  /// of schedule tokens (the grammar in noc/fault_engine.hpp).
  std::vector<noc::FaultEventSpec> fault_events;
  std::vector<PhaseSpec> phases;

  /// The classic warmup/measure/drain protocol as a 3-phase scenario - the
  /// shape run_simulation has always executed.
  static ScenarioSpec classic(Design design, const std::string& workload, double injection,
                              const NocConfig& cfg);

  /// Throws ConfigError on an invalid declaration (no phases, a first
  /// phase without a workload, a drain phase with traffic on, a negative
  /// injection). Zero-length non-drain phases are legal: they simulate
  /// nothing but still trigger their boundary events (a classic scenario
  /// with warmup_cycles = 0, or a pure "reconfigure now" marker phase).
  void validate() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The scenario field table: f(meta, specs.member...) once per scalar field
/// (name, design, the NocConfig rows, fault_rate, single_config_core,
/// store_issue, then the telemetry block) in point-key order. Text and JSON
/// write the keyed rows in this order; apply and the point key walk it too.
template <class F, class... S>
void for_each_field(F&& f, S&... s) {
  using R = FieldMeta;
  f(R{.member = "name", .key = "name", .in_point_key = false}, s.name...);
  f(R{.member = "design", .key = "design"}, s.design...);
  for_each_config_field(f, s.config...);
  f(R{.member = "fault_rate", .key = "fault_rate"}, s.fault_rate...);
  f(R{.member = "single_config_core", .key = "single_config_core"}, s.single_config_core...);
  f(R{.member = "store_issue_cycles", .key = "store_issue"}, s.store_issue_cycles...);
  // Telemetry observes a run without changing it (gated by the telemetry
  // tests), so runs with and without a probe share one cache entry.
  auto observe = [](std::string_view member, std::string_view key) {
    return R{.member = member, .key = key, .in_point_key = false, .omit_default = true};
  };
  f(observe("telemetry.epoch_cycles", "telemetry_epoch"), s.telemetry.epoch_cycles...);
  f(observe("telemetry.record_trace", "record_trace"), s.telemetry.record_trace...);
  f(observe("telemetry.csv", "telemetry_csv"), s.telemetry.csv...);
  f(observe("telemetry.power_csv", "telemetry_power_csv"), s.telemetry.power_csv...);
  f(observe("telemetry.heatmap", "telemetry_heatmap"), s.telemetry.heatmap...);
  f(observe("telemetry.chrome", "telemetry_chrome"), s.telemetry.chrome...);
  f(observe("telemetry.chrome_events", "telemetry_chrome_events"), s.telemetry.chrome_events...);
}

/// The phase table, in struct (= point-key) order. The text phase line
/// spells a row by `key`, a bool row as a bare flag (the key, or no-<key>
/// for a row that defaults to true); a JSON phase object by member name.
/// The name is positional in text and first in JSON, so its row has no key.
template <class F, class... P>
void for_each_phase_field(F&& f, P&... p) {
  using R = FieldMeta;
  auto row = [](std::string_view member, std::string_view key) {
    return R{.member = member, .key = key, .omit_default = true};
  };
  f(R{.member = "name", .in_point_key = false}, p.name...);
  f(row("workload", "workload"), p.workload...);
  f(row("injection", "injection"), p.injection...);
  f(row("cycles", "cycles"), p.cycles...);
  f(row("measure", "measure"), p.measure...);
  f(row("traffic", "traffic"), p.traffic...);
  f(row("drain", "drain"), p.drain...);
  f(row("reconfigure", "reconfigure"), p.reconfigure...);
  f(row("fault_rate", "fault"), p.fault_rate...);
}

/// The classic 3 phases alone (for Session's borrowing mode, where the
/// caller provides network and workload and only the protocol is needed).
std::vector<PhaseSpec> classic_phases(const NocConfig& cfg);

/// Applies one scenario-level `key = value` assignment, as a line of the
/// text form does. Throws ConfigError on an unknown key or a bad value.
void apply_scalar(ScenarioSpec& spec, const std::string& key, const std::string& value);

/// Points the telemetry exports at <prefix>.csv, <prefix>_power.csv and
/// <prefix>_heatmap.csv and the packet capture at <trace_prefix>.sntr; an
/// empty prefix leaves its outputs alone. A non-zero `epoch` sets the
/// sample window; otherwise a declared window is kept, else 1024 cycles.
void set_telemetry_outputs(TelemetrySpec& t, const std::string& prefix,
                           const std::string& trace_prefix, Cycle epoch);

/// Parses a scenario from its text or JSON form (auto-detected: JSON
/// starts with '{'). Throws ConfigError with a line/context message.
ScenarioSpec parse_scenario(const std::string& text);

/// Line-oriented text form:
///
///   # scenario
///   name = appswitch
///   design = smart
///   mesh = 4x4
///   ...
///   phase warmup workload=wlan injection=1 cycles=2000
///   phase run_a cycles=20000 measure
///   phase swap workload=vopd cycles=20000 measure reconfigure
///   phase drain drain
std::string serialize_scenario_text(const ScenarioSpec& spec);

/// JSON object form (same keys; phases as an array of objects).
std::string serialize_scenario_json(const ScenarioSpec& spec);

}  // namespace smartnoc::sim
