// Scaling study: SMART's value as the mesh grows (4x4 -> 8x8). "As
// technology scales, SoCs are increasing in core counts" - longer routes
// cost the baseline 4 cycles per hop but cost SMART only millimetres.
#include <cstdio>
#include <utility>

#include "common/table.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace {

using namespace smartnoc;

void paper_scaling_study() {
  std::puts("=== Scaling: Mesh vs SMART latency as the chip grows ===\n");
  TextTable t({"mesh", "pattern", "avg hops", "Mesh (cyc)", "SMART (cyc)", "saving",
               "HPC segments/route"});
  for (const auto [w, h] : {std::pair{4, 4}, std::pair{6, 6}, std::pair{8, 8}}) {
    NocConfig cfg = NocConfig::paper_4x4();
    cfg.width = w;
    cfg.height = h;
    cfg.header_bits = 2 * cfg.max_route_entries() + 8;
    cfg.warmup_cycles = 3'000;
    cfg.measure_cycles = 30'000;
    cfg.validate();
    const int hpc = smart::effective_hpc_max(cfg);

    for (noc::SyntheticPattern pat :
         {noc::SyntheticPattern::BitComplement, noc::SyntheticPattern::Transpose}) {
      auto mk = [&] { return noc::make_synthetic_flows(cfg, pat, 0.03, noc::TurnModel::XY); };
      double hops = 0.0, segments = 0.0;
      {
        const auto flows = mk();
        for (const auto& f : flows) {
          hops += f.path.hops();
          segments += (f.path.hops() + hpc - 1) / hpc;
        }
        hops /= flows.size();
        segments /= flows.size();
      }
      double mesh_lat, smart_lat;
      {
        auto mesh = noc::make_baseline_mesh(cfg, mk());
        sim::BernoulliWorkload tr(cfg, mesh->flows(), cfg.seed);
        sim::run_simulation(*mesh, tr, cfg);
        mesh_lat = mesh->stats().avg_network_latency();
      }
      {
        auto smart = smart::make_smart_network(cfg, mk());
        sim::BernoulliWorkload tr(cfg, smart.net->flows(), cfg.seed);
        sim::run_simulation(*smart.net, tr, cfg);
        smart_lat = smart.net->stats().avg_network_latency();
      }
      t.add_row({strf("%dx%d", w, h), noc::synthetic_name(pat), strf("%.2f", hops),
                 strf("%.2f", mesh_lat), strf("%.2f", smart_lat),
                 strf("-%.0f%%", 100.0 * (1.0 - smart_lat / mesh_lat)),
                 strf("%.2f", segments)});
    }
  }
  t.print();

  // Zero-load distance scaling: one lone corner-to-corner flow.
  std::puts("\n--- zero-load corner-to-corner (lone flow) ---");
  TextTable z({"mesh", "hops", "Mesh (cyc)", "SMART (cyc)", "speedup"});
  for (const auto [w, h] : {std::pair{4, 4}, std::pair{6, 6}, std::pair{8, 8}}) {
    NocConfig cfg = NocConfig::paper_4x4();
    cfg.width = w;
    cfg.height = h;
    cfg.header_bits = 2 * cfg.max_route_entries() + 8;
    cfg.validate();
    noc::FlowSet fs;
    const NodeId dst = cfg.dims().nodes() - 1;
    fs.add(0, dst, 100.0, noc::xy_path(cfg.dims(), 0, dst));
    auto run_one = [&](noc::Network& net) {
      net.offer_packet(0, net.now());
      while (net.stats().total_packets() == 0) net.tick();
      return net.stats().avg_network_latency();
    };
    auto mesh = noc::make_baseline_mesh(cfg, fs);
    auto smart = smart::make_smart_network(cfg, fs);
    const double m = run_one(*mesh), s = run_one(*smart.net);
    z.add_row({strf("%dx%d", w, h), strf("%d", cfg.dims().hop_distance(0, dst)),
               strf("%.0f", m), strf("%.0f", s), strf("%.1fx", m / s)});
  }
  z.print();

  std::puts("\nreading: two regimes. Zero-load, SMART's advantage *widens* with");
  std::puts("distance (ceil(hops/8) segments vs 4 cycles per hop: 29 -> 1 on the 4x4");
  std::puts("diagonal). Under center-loaded synthetic traffic the relative saving");
  std::puts("narrows with mesh size because link sharing - not distance - forces");
  std::puts("stops, echoing the paper's worst case (\"if all flows contend, SMART and");
  std::puts("Mesh will have the same network latency\"). Application traffic after");
  std::puts("NMAP sits near the favourable regime (Fig. 10a).");
}

}  // namespace

int main() {
  paper_scaling_study();
  return 0;
}
