// trace_tool - inspect, summarize and convert smartnoc binary packet traces.
//
// Usage:
//   trace_tool info  FILE           one-line header + injection summary
//   trace_tool flows FILE           the recorded flow table
//   trace_tool dump  FILE           entries as text ("<cycle> <flow>" lines)
//   trace_tool csv   FILE [EPOCH]   injections per epoch as CSV (default
//                                   epoch: 1024 cycles)
//   trace_tool diff  A B            compare two captures (config, flow
//                                   table, record-by-record first
//                                   divergence); exit 1 on mismatch
//   trace_tool power FILE [EPOCH] [DESIGN]
//                                   replay the capture (every era, through
//                                   each recorded reconfiguration) and print
//                                   the per-epoch power breakdown as CSV
//
// All decode errors (truncation, bad magic, version mismatch, garbage
// varints) surface as one-line diagnostics with exit code 1.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/config_fields.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"
#include "sim/session.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace_file.hpp"

namespace {

using namespace smartnoc;

int usage(const char* argv0, int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: %s <command> FILE [args]\n"
               "  info  FILE          header + injection summary\n"
               "  flows FILE          recorded flow table\n"
               "  dump  FILE          entries as '<cycle> <flow>' text\n"
               "  csv   FILE [EPOCH]  injections per epoch as CSV\n"
               "  diff  A B           compare two captures (exit 1 on mismatch)\n"
               "  power FILE [EPOCH] [DESIGN]\n"
               "                      replay every era and print the per-epoch power\n"
               "                      breakdown as CSV (default epoch 1024, design smart)\n",
               argv0);
  return code;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const telemetry::TraceFile a = telemetry::read_trace_file(path_a);
  const telemetry::TraceFile b = telemetry::read_trace_file(path_b);
  const telemetry::TraceDiff d = telemetry::diff_traces(a, b);
  if (d.identical) {
    std::printf("captures are identical (%d flows, %zu records)\n", a.eras.front().flows.size(),
                a.eras.front().entries.size());
    return 0;
  }
  std::fputs(d.report.c_str(), stdout);
  return 1;
}

int cmd_info(const telemetry::TraceFile& trace) {
  std::fputs(telemetry::summarize_trace(trace).c_str(), stdout);
  const telemetry::TraceEra& era = trace.eras.front();
  std::uint64_t busiest = 0;
  FlowId busiest_flow = kInvalidFlow;
  std::vector<std::uint64_t> per_flow(static_cast<std::size_t>(era.flows.size()), 0);
  for (const noc::TraceEntry& e : era.entries) {
    per_flow[static_cast<std::size_t>(e.flow)] += 1;
  }
  for (std::size_t i = 0; i < per_flow.size(); ++i) {
    if (per_flow[i] > busiest) {
      busiest = per_flow[i];
      busiest_flow = static_cast<FlowId>(i);
    }
  }
  if (busiest_flow != kInvalidFlow) {
    const noc::Flow& f = era.flows.at(busiest_flow);
    std::printf("busiest flow: %d (%d->%d), %llu packets\n", busiest_flow, f.src, f.dst,
                static_cast<unsigned long long>(busiest));
  }
  return 0;
}

int cmd_flows(const telemetry::TraceEra& era) {
  TextTable table({"flow", "src", "dst", "bandwidth MB/s", "route"});
  for (const noc::Flow& f : era.flows) {
    table.add_row({std::to_string(f.id), std::to_string(f.src), std::to_string(f.dst),
                   strf("%.4g", f.bandwidth_mbps), f.path.str()});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_dump(const telemetry::TraceEra& era) {
  for (const noc::TraceEntry& e : era.entries) {
    std::printf("%llu %d\n", static_cast<unsigned long long>(e.cycle), e.flow);
  }
  return 0;
}

int cmd_csv(const telemetry::TraceEra& era, Cycle epoch) {
  if (epoch == 0) {
    std::fprintf(stderr, "epoch must be > 0\n");
    return 2;
  }
  // One row per epoch that contains injections, walking the entries (not
  // the cycle range: a well-formed trace may legally name astronomically
  // late cycles, and output must stay proportional to the record count).
  std::printf("epoch,start_cycle,injected_packets\n");
  std::size_t i = 0;
  while (i < era.entries.size()) {
    const Cycle e = era.entries[i].cycle / epoch;
    std::uint64_t n = 0;
    while (i < era.entries.size() && era.entries[i].cycle / epoch == e) {
      ++n;
      ++i;
    }
    std::printf("%llu,%llu,%llu\n", static_cast<unsigned long long>(e),
                static_cast<unsigned long long>(e * epoch), static_cast<unsigned long long>(n));
  }
  return 0;
}

int cmd_power(const std::string& path, const telemetry::TraceFile& trace, Cycle epoch,
              Design design) {
  if (epoch == 0) {
    std::fprintf(stderr, "epoch must be > 0\n");
    return 2;
  }
  // Re-execute the capture as a scenario: one measured phase per recorded
  // era (the trace:<file>@<e> workload rebuilds the recorded flows and
  // injections; the phase boundary drains and reconfigures exactly like the
  // original run's era switch), then fold the probe's per-epoch activity
  // through the energy model.
  sim::ScenarioSpec spec;
  spec.name = "trace_power";
  spec.design = design;
  spec.config = trace.eras.front().config;
  spec.telemetry.epoch_cycles = epoch;
  // Enables the power series; the CSV itself goes to stdout below.
  spec.telemetry.power_csv = "/dev/null";
  for (std::size_t e = 0; e < trace.eras.size(); ++e) {
    const telemetry::TraceEra& era = trace.eras[e];
    sim::PhaseSpec ph;
    ph.name = "era" + std::to_string(e);
    ph.workload = "trace:" + path + "@" + std::to_string(e);
    ph.cycles = era.entries.empty() ? 1 : era.entries.back().cycle + 1;
    ph.measure = true;
    spec.phases.push_back(ph);
  }
  sim::PhaseSpec drain;
  drain.name = "drain";
  drain.traffic = false;
  drain.drain = true;
  spec.phases.push_back(drain);
  spec.validate();

  sim::Session session(spec);
  const sim::SessionResult result = session.run();
  if (!result.ok) {
    std::fprintf(stderr, "replay failed: %s\n", result.error.c_str());
    return 1;
  }
  const NocConfig& cfg = session.era_config();
  std::fputs(telemetry::export_power_series_csv(*session.probe(), cfg,
                                                power::EnergyParams::for_config(cfg))
                 .c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    return usage(argv[0], 0);
  }
  if (argc < 3) return usage(argv[0], 2);
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    if (cmd == "diff") {
      if (argc < 4) return usage(argv[0], 2);
      return cmd_diff(path, argv[3]);
    }
    const telemetry::TraceFile trace = telemetry::read_trace_file(path);
    if (cmd == "info") return cmd_info(trace);
    if (cmd == "flows") return cmd_flows(trace.eras.front());
    if (cmd == "dump") return cmd_dump(trace.eras.front());
    if (cmd == "csv") {
      const Cycle epoch = argc >= 4 ? parse_u64_token(argv[3], "epoch") : 1024;
      return cmd_csv(trace.eras.front(), epoch);
    }
    if (cmd == "power") {
      const Cycle epoch = argc >= 4 ? parse_u64_token(argv[3], "epoch") : 1024;
      const Design design = argc >= 5 ? parse_design(argv[4]) : Design::Smart;
      return cmd_power(path, trace, epoch, design);
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage(argv[0], 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
