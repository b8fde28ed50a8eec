// The classic warmup / measure / drain protocol, kept as a thin wrapper
// over the Session core (session.hpp). The protocol:
//
//   1. warmup_cycles with traffic on (reaches steady state);
//   2. stats reset, measure_cycles with traffic on;
//   3. activity snapshot (the power model's energy window);
//   4. traffic off, run until the network drains (packets injected during
//      the window finish and are included in the latency statistics).
//
// run_simulation executes exactly the 3-phase classic scenario and is
// bit-identical to the historical hand-rolled loop (pinned by
// tests/test_scenario.cpp). New code should prefer ScenarioSpec + Session,
// which add multi-phase runs, reconfiguration and stepwise control.
#pragma once

#include "common/config.hpp"
#include "common/error.hpp"
#include "noc/network_iface.hpp"
#include "noc/stats.hpp"
#include "noc/traffic.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"
#include "sim/workload.hpp"

namespace smartnoc::sim {

struct RunResult {
  /// False when the run failed - today that means the network did not
  /// drain within the timeout, so the latency snapshot below is censored.
  /// Session, run_simulation and the explorer all surface this uniformly.
  bool ok = true;
  std::string error;

  Cycle warmup_cycles = 0;
  Cycle measure_cycles = 0;
  Cycle drain_cycles = 0;
  bool drained = false;
  std::uint64_t packets_generated = 0;
  /// Activity during the measurement window only (power model input).
  noc::ActivityCounters activity;

  // Stats snapshot taken after the drain phase, so packets injected inside
  // the window but delivered during drain are included. When !ok the
  // snapshot is partial: consumers that aggregate runs (the explorer) must
  // report the failure instead of these numbers.
  std::uint64_t packets_delivered = 0;
  double avg_network_latency = 0.0;
  double avg_total_latency = 0.0;
  Cycle p50_network_latency = 0;
  Cycle p99_network_latency = 0;
  Cycle max_network_latency = 0;
  /// Delivered packets per cycle of the measurement window (whole mesh).
  double delivered_packets_per_cycle = 0.0;

  /// Wall-clock self-profile of the run (nondeterministic; keep out of any
  /// output pinned byte-identical across runs or thread counts).
  RunProfile profile;
};

/// Folds a session's phase records into the classic RunResult shape:
/// pre-measure phases count as warmup, measure phases accumulate the
/// window, drain phases the drain; the latency snapshot is the last
/// phase's (i.e. post-drain, like the legacy protocol took it).
inline RunResult session_to_run_result(const SessionResult& sr) {
  RunResult res;
  res.ok = sr.ok;
  res.error = sr.error;
  res.profile = sr.profile;
  bool saw_drain = false;
  res.drained = true;
  for (const PhaseResult& p : sr.phases) {
    if (p.measured) {
      res.measure_cycles += p.cycles_run;
      res.packets_generated += p.packets_generated;
      res.activity = p.activity;
    } else if (p.drain) {
      res.drain_cycles += p.cycles_run;
      saw_drain = true;
      res.drained = res.drained && p.drained;
    } else {
      res.warmup_cycles += p.cycles_run;
    }
  }
  if (!saw_drain) res.drained = false;
  if (!sr.phases.empty()) {
    const PhaseResult& last = sr.phases.back();
    res.packets_delivered = last.packets_delivered;
    res.avg_network_latency = last.avg_network_latency;
    res.avg_total_latency = last.avg_total_latency;
    res.p50_network_latency = last.p50_network_latency;
    res.p99_network_latency = last.p99_network_latency;
    res.max_network_latency = last.max_network_latency;
  }
  res.delivered_packets_per_cycle =
      res.measure_cycles
          ? static_cast<double>(res.packets_delivered) / static_cast<double>(res.measure_cycles)
          : 0.0;
  return res;
}

/// Drives a workload (sim::BernoulliWorkload, sim::ReplayWorkload, ...)
/// through the classic 3-phase scenario on a caller-built network.
inline RunResult run_simulation(noc::Network& net, Workload& source, const NocConfig& cfg) {
  Session session(net, source, classic_phases(cfg));
  return session_to_run_result(session.run());
}

/// Runs a full scenario from its declaration (Session owns the networks).
inline SessionResult run_scenario(const ScenarioSpec& spec) { return Session(spec).run(); }

}  // namespace smartnoc::sim
