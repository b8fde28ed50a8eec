#include "explore/job.hpp"

#include <string>

#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "noc/fault_engine.hpp"
#include "power/energy_model.hpp"
#include "sim/runner.hpp"
#include "tools/physical_gen.hpp"

namespace smartnoc::explore {

PointCursor::PointCursor(const SweepSpec& spec)
    : spec_(&spec),
      prefix_(spec.axes.empty() ? 0 : spec.axes.size() - 1),
      digits_(spec.axes.size()),
      want_(spec.axes.size()) {}

const sim::ScenarioSpec& PointCursor::resolve(const RunPoint& pt) {
  const SweepSpec& spec = *spec_;
  if (!pt.scenario_file.empty()) {
    point_ = sim::parse_scenario(read_file(pt.scenario_file, "scenario file"));
  } else {
    const std::vector<SweepAxis>& axes = spec.axes;
    const std::size_t n = axes.size();
    std::size_t rest = pt.index;
    for (std::size_t k = n; k-- > 0;) {
      want_[k] = rest % axes[k].values.size();
      rest /= axes[k].values.size();
    }
    // Level k + 1 is kept while the point shares digits [0, k]. The last
    // axis is applied to the point itself, so it has no level.
    std::size_t k = 0;
    while (k < valid_ && digits_[k] == want_[k]) ++k;
    valid_ = k;
    for (; k + 1 < n; ++k) {
      prefix_[k] = level(k);
      apply_point_value(prefix_[k], axes[k].key, axes[k].values[want_[k]]);
      digits_[k] = want_[k];
      valid_ = k + 1;
    }
    point_ = level(k);
    if (n > 0) apply_point_value(point_, axes[k].key, axes[k].values[want_[k]]);
    // Position-derived seed: identical for point i no matter what thread
    // runs it or what other axes exist.
    point_.config.seed =
        SplitMix64(spec.base_seed ^ (0x9e3779b97f4a7c15ULL * (pt.index + 1))).next();
    point_.config.fit_derived();
    // The classic phases run the windows the base and the axes resolved to.
    point_.phases[0].cycles = point_.config.warmup_cycles;
    point_.phases[1].cycles = point_.config.measure_cycles;
    point_.phases[2].cycles = point_.config.drain_timeout;
  }
  // Per-point observability (every design: Mesh/Smart via MeshNetwork's
  // observer, Dedicated via its own packet/activity hooks).
  const auto tagged = [&](const std::string& prefix) {
    return prefix.empty() ? prefix : prefix + "_p" + std::to_string(pt.index);
  };
  sim::set_telemetry_outputs(point_.telemetry, tagged(spec.telemetry_prefix),
                             tagged(spec.trace_prefix), spec.telemetry_epoch);
  return point_;
}

sim::ScenarioSpec make_point_scenario(const SweepSpec& spec, const RunPoint& pt) {
  sim::ScenarioSpec sc = PointCursor(spec).resolve(pt);
  sc.config.validate();
  return sc;
}

void stamp_point_echo(const RunPoint& pt, const sim::ScenarioSpec& sc, RunRecord& rec) {
  rec.index = pt.index;
  rec.width = sc.config.width;
  rec.height = sc.config.height;
  rec.flit_bits = sc.config.flit_bits;
  rec.workload =
      pt.scenario_file.empty() ? sc.phases.front().workload : "scenario:" + pt.scenario_file;
  rec.fault_rate = sc.fault_rate;
  rec.fault_schedule = noc::format_fault_schedule_token(sc.fault_events);
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
  rec.index = pt.index;
  if (!pt.scenario_file.empty()) rec.workload = "scenario:" + pt.scenario_file;

  try {
    sim::ScenarioSpec scenario = PointCursor(spec).resolve(pt);
    stamp_point_echo(pt, scenario, rec);
    rec.hpc_max = scenario.config.hpc_max_override;
    scenario.config.validate();
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
