// Scaling study, two senses of the word:
//
//  1. SMART's value as the mesh grows (4x4 -> 8x8): "As technology scales,
//     SoCs are increasing in core counts" - longer routes cost the baseline
//     4 cycles per hop but cost SMART only millimetres.
//  2. The simulator's own scaling across cores: the sharded parallel cycle
//     kernel (NocConfig::shard_threads) on one big loaded simulation.
//     `--shards 1,2,4` sweeps the shard axis on a loaded 64x64 mesh and a
//     128x128 headline point, printing ns/cycle, speedup vs one shard and
//     the armed-at-one-shard overhead as machine-readable
//     `shard_scaling <metric> <value>` lines (assembled into BENCH_pr10.json
//     by CI, with gates: armed overhead < 3%, >= 2.5x at 4 shards on a
//     >= 4-thread machine).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace {

using namespace smartnoc;

/// Uniform-random load bounded to a Manhattan radius: every node sends to
/// `kFlowsPerNode` deterministic random destinations within `radius` hops.
/// Big meshes need the bound twice over - the 64-bit source route caps a
/// path at 31 links, and all-pairs uniform-random on a 64x64 would be 16M
/// flows. Local-uniform keeps every router busy (the kernel-scaling
/// question) at O(nodes) flows with legal routes.
noc::FlowSet local_uniform_flows(const NocConfig& cfg, double flits_per_node_cycle, int radius) {
  constexpr int kFlowsPerNode = 4;
  const MeshDims dims = cfg.dims();
  const double pkts_per_flow_cycle =
      flits_per_node_cycle / cfg.flits_per_packet() / kFlowsPerNode;
  noc::FlowSet out;
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    Xoshiro256 rng = make_stream(cfg.seed, 0x10CA1ULL * 131 + static_cast<std::uint64_t>(s));
    const Coord c = dims.coord(s);
    for (int f = 0; f < kFlowsPerNode; ++f) {
      Coord d = c;
      while (d.x == c.x && d.y == c.y) {
        const int lo_x = std::max(0, c.x - radius), hi_x = std::min(dims.width() - 1, c.x + radius);
        const int lo_y = std::max(0, c.y - radius), hi_y = std::min(dims.height() - 1, c.y + radius);
        d.x = lo_x + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_x - lo_x + 1)));
        d.y = lo_y + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_y - lo_y + 1)));
      }
      const NodeId dst = dims.id(d);
      out.add(s, dst, noc::mbps_for_packets_per_cycle(cfg, pkts_per_flow_cycle),
              noc::xy_path(dims, s, dst));
    }
  }
  return out;
}

/// Loaded cycle rate of one mesh under local-uniform traffic: warm up, then
/// time `measure` tick+generate cycles. force_armed runs the full sharded
/// protocol at shard count 1 (the overhead configuration).
double ns_per_cycle(int side, int shards, bool force_armed, Cycle warmup, Cycle measure) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = side;
  cfg.height = side;
  cfg.shard_threads = shards;
  cfg.fit_derived();
  cfg.validate();
  auto flows = local_uniform_flows(cfg, /*flits_per_node_cycle=*/0.03, /*radius=*/12);
  auto net = noc::make_baseline_mesh(cfg, std::move(flows));
  if (force_armed) net->force_sharded_path(true);
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  for (Cycle c = 0; c < warmup; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (Cycle c = 0; c < measure; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(measure);
}

/// Best of `reps` runs: each side's noise floor, which is what overhead
/// and speedup comparisons need on a shared machine.
double best_ns_per_cycle(int side, int shards, bool force_armed, Cycle warmup, Cycle measure,
                         int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double v = ns_per_cycle(side, shards, force_armed, warmup, measure);
    if (best == 0.0 || v < best) best = v;
  }
  return best;
}

std::vector<int> parse_shard_axis(const std::string& arg) {
  std::vector<int> out;
  std::string tok;
  for (std::size_t i = 0; i <= arg.size(); ++i) {
    if (i == arg.size() || arg[i] == ',') {
      if (!tok.empty()) out.push_back(parse_int_token(tok, "--shards"));
      tok.clear();
    } else {
      tok.push_back(arg[i]);
    }
  }
  if (out.empty() || out.front() != 1) out.insert(out.begin(), 1);
  return out;
}

void shard_scaling_study(const std::vector<int>& shard_axis) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("\n=== Sharded cycle kernel: one loaded 64x64 across cores ===\n");
  std::printf("(%d hardware threads on this machine)\n\n", hw);

  constexpr Cycle kWarmup = 500;
  constexpr Cycle kMeasure = 2'500;
  constexpr int kReps = 3;

  // The shard=1 pair: plain active-set kernel vs the armed sharded
  // protocol (sinks, mailboxes, epilogue) at one shard - the price of the
  // machinery itself, gated < 3% in CI.
  const double plain1 = best_ns_per_cycle(64, 1, false, kWarmup, kMeasure, kReps);
  const double armed1 = best_ns_per_cycle(64, 1, true, kWarmup, kMeasure, kReps);

  TextTable t({"shards", "ns/cycle", "speedup vs 1"});
  t.add_row({"1 (plain)", strf("%.0f", plain1), "1.00x"});
  t.add_row({"1 (armed)", strf("%.0f", armed1), strf("%.2fx", plain1 / armed1)});
  std::printf("shard_scaling hardware_threads %d\n", hw);
  std::printf("shard_scaling mesh64_ns_per_cycle_shards1 %.1f\n", plain1);
  std::printf("shard_scaling armed_overhead_shard1 %.4f\n", armed1 / plain1 - 1.0);

  int top_shards = 1;
  for (const int shards : shard_axis) {
    if (shards <= 1) continue;
    const double ns = best_ns_per_cycle(64, shards, false, kWarmup, kMeasure, kReps);
    t.add_row({strf("%d", shards), strf("%.0f", ns), strf("%.2fx", plain1 / ns)});
    std::printf("shard_scaling mesh64_ns_per_cycle_shards%d %.1f\n", shards, ns);
    std::printf("shard_scaling mesh64_speedup_shards%d %.3f\n", shards, plain1 / ns);
    if (shards > top_shards) top_shards = shards;
  }
  t.print();

  // Headline: one 128x128 (16384-router) simulation at the widest shard
  // count - the "one big simulation across many cores" datapoint.
  const double head = ns_per_cycle(128, top_shards, false, 200, 800);
  std::printf("\n128x128 loaded, %d shards: %.0f ns/cycle\n", top_shards, head);
  std::printf("shard_scaling mesh128_ns_per_cycle_shards%d %.1f\n", top_shards, head);

  std::puts("\nreading: results are bit-identical at every row (GoldenShards pins");
  std::puts("it); the speedup column is pure wall-clock. Oversubscribed runs");
  std::puts("(shards > hardware threads) spin at the per-cycle barrier - the");
  std::puts("explorer caps workers x shards at the hardware concurrency instead.");
}

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

int main(int argc, char** argv) {
  std::vector<int> shard_axis = {1, 2, 4};
  bool shards_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shard_axis = parse_shard_axis(argv[++i]);
      shards_only = true;  // an explicit axis asks for the kernel study
    } else if (arg.rfind("--shards=", 0) == 0) {
      shard_axis = parse_shard_axis(arg.substr(9));
      shards_only = true;
    } else {
      std::fprintf(stderr, "usage: %s [--shards N[,M...]]\n", argv[0]);
      return 2;
    }
  }
  if (!shards_only) paper_scaling_study();
  shard_scaling_study(shard_axis);
  return 0;
}
