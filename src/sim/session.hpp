// Session: executes a ScenarioSpec with stepwise control.
//
// A session owns (or borrows) one network at a time and walks the
// scenario's phases. Contiguous phases sharing a workload form an *era*;
// entering a phase whose workload or injection differs (or that sets the
// `reconfigure` flag) triggers the paper's Fig. 1 reconfiguration flow:
// drain the running network, execute the register-store program (diffed
// against the live register bank, whose state persists across eras), and
// build the next network from the decoded registers. The reconfiguration
// latency (drain + store cycles) is reported on the phase that caused it.
// This is the simulator's only implementation of that flow: the Fig. 1
// artifact (bench/paper_report.cpp) runs its three apps through a Session.
//
// Every phase ticks through one loop body - `net.tick();` then
// `workload.generate(net);` when the phase has traffic, stopping at the
// phase's duration or, for a drain phase, once the network is drained -
// which is exactly the legacy run_simulation protocol and lets
// run_simulation stay a thin wrapper with bit-identical results (pinned
// by tests/test_scenario.cpp across designs and kernels). Online faults,
// the liveness watchdog and progress reports are checked after every
// cycle of that loop.
//
// Control surface: run() executes everything; run_phase() one phase;
// step(n) at most n cycles without crossing a phase boundary (mid-run
// stats windows); a progress callback fires every N cycles.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noc/faults.hpp"
#include "noc/network.hpp"
#include "noc/stats.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "smart/config_reg.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/trace_file.hpp"

namespace smartnoc::sim {

/// The fabric reconfiguration a phase triggered (paper Fig. 1 cost model).
struct ReconfigEvent {
  bool performed = false;   ///< false for the scenario's very first build
  Cycle drain_cycles = 0;   ///< emptying the network before the stores
  int stores = 0;           ///< register-store program length (diffed)
  Cycle store_cycles = 0;   ///< issue + config-ring delivery of the stores
  Cycle total() const { return drain_cycles + store_cycles; }
};

/// Wall-clock self-profile of a run: the simulator timing itself, not the
/// simulated clock. The work splits into three kernel sections: `traffic`
/// (tick + generate loops), `drain` (bare-tick loops, including the drain
/// that precedes every reconfiguration) and `reconfig` (era builds: preset
/// computation, register programs, network construction - no ticking).
/// Wall-clock numbers are inherently nondeterministic; keep them out of
/// any output that is pinned byte-identical across runs.
struct RunProfile {
  double traffic_seconds = 0.0;
  double drain_seconds = 0.0;
  double reconfig_seconds = 0.0;
  std::uint64_t traffic_cycles = 0;
  std::uint64_t drain_cycles = 0;

  double total_seconds() const { return traffic_seconds + drain_seconds + reconfig_seconds; }
  std::uint64_t cycles() const { return traffic_cycles + drain_cycles; }
  /// Wall nanoseconds per simulated cycle across the ticking sections.
  double ns_per_cycle() const {
    return cycles() != 0
               ? (traffic_seconds + drain_seconds) * 1e9 / static_cast<double>(cycles())
               : 0.0;
  }
};

/// Everything one phase produced. Latency/throughput fields snapshot the
/// current measurement window (cumulative since the last `measure` phase
/// began), mirroring how the legacy protocol let drain-phase deliveries
/// count into the measured statistics.
struct PhaseResult {
  std::string name;
  std::string workload;       ///< resolved registry key
  double injection = 0.0;     ///< resolved scale
  bool ok = true;
  std::string error;          ///< failure cause when !ok

  Cycle cycles_run = 0;
  bool measured = false;      ///< this phase extended the stats window
  bool drain = false;
  bool drained = true;        ///< drain phases: did the network empty?
  int dropped_flows = 0;      ///< flows unroutable around faults (era start)
  ReconfigEvent reconfig;

  std::uint64_t packets_generated = 0;  ///< offered during this phase
  // Window snapshot at phase end:
  std::uint64_t packets_delivered = 0;
  double avg_network_latency = 0.0;
  double avg_total_latency = 0.0;
  Cycle p50_network_latency = 0;
  Cycle p99_network_latency = 0;
  Cycle max_network_latency = 0;
  double delivered_packets_per_cycle = 0.0;  ///< per measured-window cycle
  noc::ActivityCounters activity;            ///< window activity at phase end
  /// Wall-clock seconds spent simulating this phase, including the era
  /// switch it triggered (self-profiler; nondeterministic by nature).
  double wall_seconds = 0.0;
};

struct SessionResult {
  bool ok = true;
  std::string error;               ///< first failure (phase errors repeat it)
  std::vector<PhaseResult> phases;
  RunProfile profile;              ///< wall-clock self-profile of the run
  noc::FaultCounters faults;       ///< final-era degradation counters (all zero
                                   ///< when no fault events fired)

  /// Sum of every *switch*'s reconfiguration latency (the Fig. 1 number;
  /// the scenario's initial configuration is not a runtime switch).
  Cycle total_reconfig_cycles() const {
    Cycle t = 0;
    for (const PhaseResult& p : phases) {
      if (p.reconfig.performed) t += p.reconfig.total();
    }
    return t;
  }
};

/// Human-readable per-phase table (latency/throughput + reconfiguration
/// latency), as printed by `explorer --scenario`.
std::string summarize(const SessionResult& result);

/// JSON array of per-phase objects (same fields as the summary, plus the
/// raw counters), for scripting around `explorer --scenario --json`.
std::string to_json(const SessionResult& result);

/// The explorer's deterministic fault pattern: each East/North link (and
/// its reverse) fails independently with probability `rate`, drawn from a
/// dedicated sub-stream of `seed` so traffic draws are unaffected.
noc::FaultSet draw_link_faults(const MeshDims& dims, double rate, std::uint64_t seed);

/// Re-routes `flows` around `faults` (XY turn model), dropping flows whose
/// destination became unreachable; `dropped` counts the losses.
noc::FlowSet reroute_around_faults(const MeshDims& dims, const noc::FlowSet& flows,
                                   const noc::FaultSet& faults, int& dropped);

class Session {
 public:
  /// Owning mode: builds networks and workload sources from the spec.
  explicit Session(ScenarioSpec spec);

  /// Borrowing mode: the caller provides the network and the traffic
  /// source; the phases describe only the protocol (no workload names, no
  /// reconfiguration - one era for the whole session). This is the mode
  /// run_simulation rides on.
  Session(noc::Network& net, Workload& source, std::vector<PhaseSpec> phases);

  // The era network holds back-pointers into itself; the session is
  // address-stable like the network it owns.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Advances at most `n` cycles, never crossing a phase boundary. When
  /// the current phase completes (duration reached, or drained), its
  /// PhaseResult is finalized and the session moves to the next phase.
  /// Returns the cycles actually simulated (0 when a phase completes
  /// without ticking, e.g. an already-drained drain phase).
  Cycle step(Cycle n);

  /// Runs the current phase to completion and returns its result. The
  /// reference stays valid for the session's lifetime (later phases do not
  /// move earlier records).
  const PhaseResult& run_phase();

  /// Runs every remaining phase.
  SessionResult run();

  bool done() const { return failed_ || phase_index_ >= phases().size(); }
  std::size_t phase_index() const { return phase_index_; }
  Cycle session_cycles() const { return session_cycles_; }

  /// Completed phases so far (run() returns the same records). References
  /// to its elements stay valid for the session's lifetime.
  const std::vector<PhaseResult>& completed() const { return results_; }

  /// The running network of the current era. Throws before the first
  /// step/run call in owning mode (no era built yet).
  noc::Network& network();
  /// The running network as a MeshNetwork, or nullptr (Dedicated design).
  noc::MeshNetwork* mesh_network();
  /// The current era's configuration (apps adjust bandwidth_scale etc.).
  const NocConfig& era_config() const;
  /// SMART single-cycle reach of the running era (0 for other designs).
  int hpc_max() const { return hpc_max_; }
  const ScenarioSpec& spec() const { return spec_; }

  struct Progress {
    std::size_t phase_index = 0;
    const std::string* phase_name = nullptr;
    Cycle phase_cycles_run = 0;
    Cycle phase_cycles_total = 0;  ///< 0 for unbounded drain phases
    Cycle session_cycles = 0;
  };
  using ProgressFn = std::function<void(const Progress&)>;
  /// Fires `fn` every `every` cycles inside a phase (and at phase end).
  void set_progress(ProgressFn fn, Cycle every);

  /// The telemetry probe (nullptr when the scenario declares no telemetry
  /// block). Attached to every era's network; phase/era boundaries appear
  /// as marks in its series.
  telemetry::Probe* probe() { return probe_.get(); }

  /// The run's wall-clock self-profile so far (run() also returns it on
  /// the SessionResult).
  const RunProfile& profile() const { return profile_; }

  /// Writes the telemetry outputs the scenario declared: finishes the
  /// streaming binary capture (record_trace), then exports the time-series
  /// CSV, the per-epoch power CSV, the heatmap (CSV + ASCII sidecar) and
  /// the Chrome-tracing JSON. run() calls this automatically once all
  /// phases complete; step()-driven callers invoke it themselves.
  /// Idempotent; throws ConfigError (file writes) or TraceError (capture)
  /// on I/O failure.
  void flush_telemetry();

 private:
  struct Resolved {
    std::string workload;
    double injection = 1.0;
    double fault_rate = 0.0;  ///< effective rate (phase override or scenario)
    bool new_era = false;
  };

  const std::vector<PhaseSpec>& phases() const { return spec_.phases; }
  void resolve_phases();
  void begin_phase();
  /// Records the current phase's result and moves to the next phase.
  /// `failure` non-null fails the phase with that cause and snapshots no
  /// statistics; otherwise the window is snapshot, and a drain phase that
  /// did not empty fails with the drain-timeout error.
  void end_phase(const PhaseSpec& ph, const Resolved& rv, const std::string* failure);
  void switch_era(const Resolved& rv);
  void report_progress(const PhaseSpec& ph);
  /// Adds the live network's per-shard telemetry (ticks, boundary flits,
  /// barrier residency) to the process-wide smartnoc_shard_* counters.
  /// Called before an era's network is torn down and at end of run(), so
  /// each network's zero-based counters fold in exactly once.
  void fold_shard_metrics();
  /// Applies every scheduled fault action due at the current session cycle
  /// to the live network (online surgery; no drain, no rebuild).
  void fire_due_faults();
  /// True when the liveness watchdog window elapsed with no forward
  /// progress; `why` carries the structured StallReport summary.
  bool watchdog_tripped(std::string& why);

  ScenarioSpec spec_;
  std::vector<Resolved> resolved_;  ///< per-phase workload/injection/era
  bool owning_ = true;

  // Era state.
  std::unique_ptr<noc::Network> owned_net_;
  std::unique_ptr<Workload> owned_source_;
  noc::Network* net_ = nullptr;
  Workload* source_ = nullptr;
  NocConfig era_cfg_;
  std::unique_ptr<smart::RegisterFile> regs_;  ///< persists across eras
  std::unique_ptr<telemetry::Probe> probe_;    ///< persists across eras
  /// Streaming capture (record_trace): one era section per reconfiguration,
  /// fed by the probe's injection sink, finished by flush_telemetry().
  std::unique_ptr<telemetry::StreamingTraceWriter> trace_writer_;
  bool telemetry_flushed_ = false;
  int era_count_ = 0;
  int hpc_max_ = 0;
  ReconfigEvent pending_reconfig_;
  int pending_dropped_ = 0;

  // Online fault injection. Event cycles count whole-session time; the
  // network clock restarts per era, so release cycles are translated at
  // fire time. Permanent kills and unexpired stalls outlive era switches
  // (re-applied to each freshly built network).
  noc::FaultSchedule fault_schedule_;
  Cycle fault_next_ = noc::FaultSchedule::kNever;
  noc::FaultSet session_dead_links_;
  std::vector<std::pair<NodeId, Cycle>> session_stalls_;  ///< (router, session release)
  // Liveness watchdog: last observed forward-progress fingerprint.
  std::uint64_t wd_progress_ = 0;
  Cycle wd_last_progress_ = 0;

  // Phase state.
  std::size_t phase_index_ = 0;
  bool phase_started_ = false;
  Cycle phase_cycles_ = 0;
  std::uint64_t phase_gen_before_ = 0;
  Cycle window_measured_ = 0;  ///< measured cycles since the last stats reset
  Cycle session_cycles_ = 0;
  std::vector<PhaseResult> results_;
  bool failed_ = false;
  std::string error_;

  // Self-profiler state (wall clock; see RunProfile).
  RunProfile profile_;
  double phase_wall_seconds_ = 0.0;

  ProgressFn progress_;
  Cycle progress_every_ = 0;
};

}  // namespace smartnoc::sim
