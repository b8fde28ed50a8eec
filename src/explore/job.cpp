#include "explore/job.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "noc/fault_engine.hpp"
#include "power/energy_model.hpp"
#include "sim/runner.hpp"
#include "tools/physical_gen.hpp"

namespace smartnoc::explore {

namespace {

void apply_point_telemetry(const SweepSpec& spec, const RunPoint& pt,
                           sim::ScenarioSpec& scenario) {
  // Per-point observability (every design: Mesh/Smart via MeshNetwork's
  // observer, Dedicated via its own packet/activity hooks).
  const std::string tag = "_p" + std::to_string(pt.index);
  if (!spec.telemetry_prefix.empty()) {
    scenario.telemetry.epoch_cycles = spec.telemetry_epoch;
    scenario.telemetry.csv = spec.telemetry_prefix + tag + ".csv";
    scenario.telemetry.power_csv = spec.telemetry_prefix + tag + "_power.csv";
    scenario.telemetry.heatmap = spec.telemetry_prefix + tag + "_heatmap.csv";
  }
  if (!spec.trace_prefix.empty()) {
    scenario.telemetry.record_trace = spec.trace_prefix + tag + ".sntr";
  }
}

}  // namespace

sim::ScenarioSpec make_point_scenario(const SweepSpec& spec, const RunPoint& pt) {
  sim::ScenarioSpec scenario;
  if (!pt.scenario_file.empty()) {
    std::ifstream f(pt.scenario_file);
    if (!f) throw ConfigError("cannot open scenario file '" + pt.scenario_file + "'");
    std::stringstream buf;
    buf << f.rdbuf();
    scenario = sim::parse_scenario(buf.str());
    scenario.validate();
  } else {
    // One exploration point is exactly the classic 3-phase scenario: the
    // Session owns the flow build (with fault rerouting), the network and
    // the traffic engine, replicating the sequence this file hand-wired
    // before the Scenario API existed (bit-identical, pinned by tests).
    scenario = sim::ScenarioSpec::classic(pt.design, pt.workload.name(), pt.injection,
                                          spec.config_for(pt));
    scenario.fault_rate = pt.fault_rate;
    if (!pt.fault_schedule.empty() && pt.fault_schedule != "none") {
      scenario.fault_events = noc::parse_fault_schedule_token(pt.fault_schedule);
    }
  }
  apply_point_telemetry(spec, pt, scenario);
  return scenario;
}

void stamp_point_echo(const RunPoint& pt, const sim::ScenarioSpec* resolved, RunRecord& rec) {
  rec.index = pt.index;
  rec.width = pt.mesh.width();
  rec.height = pt.mesh.height();
  rec.flit_bits = pt.flit_bits;
  rec.injection = pt.injection;
  rec.workload = pt.scenario_file.empty() ? pt.workload.name() : "scenario:" + pt.scenario_file;
  rec.fault_rate = pt.fault_rate;
  rec.fault_schedule = pt.fault_schedule;
  rec.design = design_name(pt.design);
  rec.seed = pt.seed;
  if (pt.scenario_file.empty() || resolved == nullptr) return;
  // Echo what the scenario file resolved to, so the row is self-describing
  // like any grid point's.
  const sim::ScenarioSpec& sc = *resolved;
  rec.width = sc.config.width;
  rec.height = sc.config.height;
  rec.flit_bits = sc.config.flit_bits;
  rec.fault_rate = sc.fault_rate;
  rec.fault_schedule =
      sc.fault_events.empty() ? "none" : noc::format_fault_schedule_token(sc.fault_events);
  rec.design = design_name(sc.design);
  rec.seed = sc.config.seed;
  for (const sim::PhaseSpec& ph : sc.phases) {
    if (ph.injection > 0.0) {
      rec.injection = ph.injection;
      break;
    }
  }
}

RunRecord run_point(const SweepSpec& spec, const RunPoint& pt, int shard_cap) {
  RunRecord rec;
  stamp_point_echo(pt, nullptr, rec);
  rec.hpc_max = pt.hpc_max;

  try {
    sim::ScenarioSpec scenario = make_point_scenario(spec, pt);
    stamp_point_echo(pt, &scenario, rec);
    rec.hpc_max = scenario.config.hpc_max_override;
    if (shard_cap > 0 && scenario.config.shard_threads > shard_cap) {
      scenario.config.shard_threads = shard_cap;
    }

    sim::Session session(std::move(scenario));
    const sim::SessionResult sr = session.run();
    const sim::RunResult run = sim::session_to_run_result(sr);

    if (!sr.phases.empty()) rec.dropped_flows = sr.phases.front().dropped_flows;
    if (session.spec().design == Design::Smart && session.hpc_max() > 0) {
      rec.hpc_max = session.hpc_max();
    }
    try {
      rec.flows = session.network().flows().size();
      // Degradation columns: how much the fault campaign actually cost.
      const noc::FaultCounters& fc = session.network().stats().faults();
      rec.packets_offered = fc.packets_offered;
      rec.packets_dropped = fc.packets_dropped;
      rec.packets_retransmitted = fc.packets_retransmitted;
      rec.flows_rerouted = fc.flows_rerouted;
      rec.flows_failed = fc.flows_failed;
    } catch (const SimError&) {
      rec.flows = 0;  // the first era never built (e.g. all flows dropped)
    }

    if (!run.ok) {
      rec.error = run.error;
      return rec;
    }

    rec.packets = run.packets_delivered;
    rec.avg_net_latency = run.avg_network_latency;
    rec.avg_total_latency = run.avg_total_latency;
    rec.p50_latency = static_cast<double>(run.p50_network_latency);
    rec.p99_latency = static_cast<double>(run.p99_network_latency);
    rec.max_latency = static_cast<double>(run.max_network_latency);
    rec.throughput_ppc = run.delivered_packets_per_cycle;

    // Power and area come from the era's configuration: app workloads
    // adjust bandwidth_scale (and the mapped config) during the build.
    const NocConfig& cfg = session.era_config();
    const auto power = power::compute_power(cfg, run.activity, run.measure_cycles,
                                            power::EnergyParams::for_config(cfg));
    rec.power_mw = power.total() * 1e3;
    const tools::RouterArea area = tools::estimate_router_area(cfg);
    rec.area_mm2 = area.total() * cfg.dims().nodes() * 1e-6;  // um^2 -> mm^2

    rec.ok = true;
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  }
  return rec;
}

}  // namespace smartnoc::explore
