// Supporting sweep: load-latency curves for Mesh vs SMART under synthetic
// traffic. Two regimes bracket SMART's behaviour:
//   * transpose (one destination per source): presets bypass nearly every
//     router, SMART holds near-single-cycle latency until saturation;
//   * uniform-random (all-pairs flows): every port is shared, every input
//     is buffered - the paper's "in the worst case, if all flows contend,
//     SMART and Mesh will have the same network latency" made measurable
//     (SMART still saves the explicit link cycles).
#include <cstdio>

#include "common/table.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

int main() {
  using namespace smartnoc;

  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 40'000;
  cfg.drain_timeout = 200'000;

  const double rates[] = {0.01, 0.05, 0.10, 0.20, 0.30};

  for (noc::SyntheticPattern pat :
       {noc::SyntheticPattern::Transpose, noc::SyntheticPattern::UniformRandom,
        noc::SyntheticPattern::BitComplement, noc::SyntheticPattern::Hotspot}) {
    std::printf("=== %s: avg network latency vs injected flits/node/cycle ===\n",
                noc::synthetic_name(pat));
    TextTable t({"rate", "Mesh", "SMART", "SMART saving"});
    for (double rate : rates) {
      auto mk = [&] { return noc::make_synthetic_flows(cfg, pat, rate, noc::TurnModel::XY); };
      double mesh_lat, smart_lat;
      {
        auto net = noc::make_baseline_mesh(cfg, mk());
        sim::BernoulliWorkload tr(cfg, net->flows(), cfg.seed);
        const auto res = sim::run_simulation(*net, tr, cfg);
        mesh_lat = res.drained ? net->stats().avg_network_latency() : -1.0;
      }
      {
        auto smart = smart::make_smart_network(cfg, mk());
        sim::BernoulliWorkload tr(cfg, smart.net->flows(), cfg.seed);
        const auto res = sim::run_simulation(*smart.net, tr, cfg);
        smart_lat = res.drained ? smart.net->stats().avg_network_latency() : -1.0;
      }
      if (mesh_lat < 0 || smart_lat < 0) {
        t.add_row({strf("%.2f", rate), mesh_lat < 0 ? "saturated" : strf("%.2f", mesh_lat),
                   smart_lat < 0 ? "saturated" : strf("%.2f", smart_lat), "-"});
      } else {
        t.add_row({strf("%.2f", rate), strf("%.2f", mesh_lat), strf("%.2f", smart_lat),
                   strf("-%.0f%%", 100.0 * (1.0 - smart_lat / mesh_lat))});
      }
    }
    t.print();
    std::puts("");
  }
  return 0;
}
