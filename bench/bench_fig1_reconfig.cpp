// Figure 1: "Mesh reconfiguration for three applications. All links in
// bold take one-cycle." - the WLAN -> H264 -> VOPD reconfiguration story,
// with the Section V cost model (drain + memory stores over a side ring).
//
// For each application this bench renders the mesh with its single-cycle
// (bypass) links, reports how much of the application's traffic is
// stop-free, and prints the cost of switching presets at runtime.
#include <cstdio>
#include <set>
#include <string>

#include "common/table.hpp"
#include "mapping/nmap.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/reconfig.hpp"

namespace {

using namespace smartnoc;

/// Draws the 4x4 mesh; '=' / '|' mark links covered by preset bypass
/// segments (the figure's bold one-cycle links), '-' / ':' ordinary links.
void draw_mesh(const noc::MeshNetwork& net) {
  const MeshDims dims = net.config().dims();
  // A mesh link is bold iff a preset bypass crosses one of its endpoints,
  // i.e. the receiving router's input mux (in either direction) is Bypass.
  std::set<std::pair<NodeId, int>> bold;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir d : {Dir::East, Dir::North}) {
      if (!dims.has_neighbor(n, d)) continue;
      const NodeId nb = dims.neighbor(n, d);
      const auto in_at_nb = static_cast<std::size_t>(dir_index(opposite(d)));
      const auto in_at_n = static_cast<std::size_t>(dir_index(d));
      if (net.presets().at(nb).input_mux[in_at_nb] == noc::InputMux::Bypass ||
          net.presets().at(n).input_mux[in_at_n] == noc::InputMux::Bypass) {
        bold.insert({n, dir_index(d)});
      }
    }
  }
  for (int y = dims.height() - 1; y >= 0; --y) {
    std::string row, below;
    for (int x = 0; x < dims.width(); ++x) {
      const NodeId n = dims.id({x, y});
      row += strf("%2d", n);
      if (x + 1 < dims.width()) {
        row += bold.count({n, dir_index(Dir::East)}) ? " == " : " -- ";
      }
      if (y > 0) {
        const NodeId s = dims.neighbor(n, Dir::South);
        below += bold.count({s, dir_index(Dir::North)}) ? " \"    " : " '    ";
      }
    }
    std::printf("  %s\n", row.c_str());
    if (y > 0) std::printf("  %s\n", below.c_str());
  }
  std::puts("  (== / \" : links reachable in a single cycle via preset bypass)");
}

}  // namespace

int main() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 100'000;

  std::puts("=== Figure 1: runtime reconfiguration across three applications ===\n");
  smart::ReconfigManager mgr(cfg, /*single_config_core=*/true);

  TextTable t({"App", "drain (cyc)", "stores", "store cyc", "total reconfig (cyc)",
               "stop-free flows", "avg latency (cyc)"});
  for (mapping::SocApp app :
       {mapping::SocApp::WLAN, mapping::SocApp::H264, mapping::SocApp::VOPD}) {
    const auto mapped = mapping::map_app(app, cfg);
    const auto cost = mgr.reconfigure(mapped.flows);

    std::printf("-- %s --\n", mapping::app_name(app));
    draw_mesh(mgr.network());
    std::puts("");

    int stop_free = 0;
    for (const auto& stops : mgr.presets().stops_per_flow) {
      stop_free += stops.empty() ? 1 : 0;
    }
    sim::BernoulliWorkload traffic(mapped.cfg, mgr.network().flows(), cfg.seed);
    sim::run_simulation(mgr.network(), traffic, mapped.cfg);
    t.add_row({mapping::app_name(app), strf("%llu", (unsigned long long)cost.drain_cycles),
               strf("%d", cost.stores), strf("%llu", (unsigned long long)cost.store_cycles),
               strf("%llu", (unsigned long long)cost.total()),
               strf("%d/%d", stop_free, mgr.network().flows().size()),
               strf("%.2f", mgr.network().stats().avg_network_latency())});
  }
  t.print();
  std::puts("\npaper: 16 registers -> 16 store instructions; with a single configuring");
  std::puts("core the stores ride a side ring. Reconfiguration cost is tens of cycles,");
  std::puts("negligible against application runtimes (\"the overhead of the");
  std::puts("reconfiguration can be omitted\").");
  return 0;
}
