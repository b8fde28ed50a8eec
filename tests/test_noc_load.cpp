// Conservation and flow-control properties under sustained load: every
// generated packet is delivered exactly once, credits never overflow (the
// router asserts), and the network drains - on both designs, across
// synthetic patterns and injection rates.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "helpers.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using noc::SyntheticPattern;
using smartnoc::testing::test_config;

struct LoadCase {
  SyntheticPattern pattern;
  double flits_per_node_cycle;
  bool smart;
};

class LoadSweep : public ::testing::TestWithParam<LoadCase> {};

TEST_P(LoadSweep, ConservationAndDrain) {
  const auto& p = GetParam();
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 8000;
  cfg.drain_timeout = 50000;
  auto flows = noc::make_synthetic_flows(cfg, p.pattern, p.flits_per_node_cycle,
                                         noc::TurnModel::XY);
  std::unique_ptr<noc::MeshNetwork> net;
  if (p.smart) {
    net = smart::make_smart_network(cfg, std::move(flows)).net;
  } else {
    net = noc::make_baseline_mesh(cfg, std::move(flows));
  }
  sim::BernoulliWorkload traffic(cfg, net->flows(), cfg.seed);
  const auto res = sim::run_simulation(*net, traffic, cfg);

  ASSERT_TRUE(res.drained) << "network failed to drain";
  // Every packet generated during warmup+measure is delivered: the stats
  // window saw at least the measure-window packets, and after drain nothing
  // is left anywhere (drained() checks NICs, routers and credits).
  EXPECT_GT(net->stats().total_packets(), 0u);
  EXPECT_GE(net->stats().total_packets(), res.packets_generated * 95 / 100)
      << "too many packets unaccounted for";
  // Flit conservation within the window: every delivered packet moved
  // flits_per_packet flits through at least one buffer write or latch.
  EXPECT_GT(res.activity.link_flit_mm, 0u);
}

std::string load_name(const ::testing::TestParamInfo<LoadCase>& pinfo) {
  std::string s = noc::synthetic_name(pinfo.param.pattern);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  s += pinfo.param.smart ? "_smart" : "_mesh";
  s += "_r" + std::to_string(static_cast<int>(pinfo.param.flits_per_node_cycle * 1000));
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LoadSweep,
    ::testing::Values(LoadCase{SyntheticPattern::UniformRandom, 0.02, false},
                      LoadCase{SyntheticPattern::UniformRandom, 0.02, true},
                      LoadCase{SyntheticPattern::Transpose, 0.05, false},
                      LoadCase{SyntheticPattern::Transpose, 0.05, true},
                      LoadCase{SyntheticPattern::BitComplement, 0.05, true},
                      LoadCase{SyntheticPattern::Neighbor, 0.10, true},
                      LoadCase{SyntheticPattern::Neighbor, 0.10, false},
                      LoadCase{SyntheticPattern::Hotspot, 0.02, true}),
    load_name);

TEST(Load, TransposeSmartBeatsMeshOnLatency) {
  // One destination per source: SMART bypasses nearly everything while the
  // mesh pays the router pipeline at every hop.
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 10000;
  auto mk_flows = [&] {
    return noc::make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.05,
                                     noc::TurnModel::XY);
  };
  auto smart = smart::make_smart_network(cfg, mk_flows());
  auto mesh = noc::make_baseline_mesh(cfg, mk_flows());
  sim::BernoulliWorkload ts(cfg, smart.net->flows(), cfg.seed);
  sim::BernoulliWorkload tm(cfg, mesh->flows(), cfg.seed);
  ASSERT_TRUE(sim::run_simulation(*smart.net, ts, cfg).drained);
  ASSERT_TRUE(sim::run_simulation(*mesh, tm, cfg).drained);
  EXPECT_LT(smart.net->stats().avg_network_latency(),
            0.5 * mesh->stats().avg_network_latency());
}

TEST(Load, SameSeedSameResults) {
  // Bit-level determinism: two identical runs produce identical statistics.
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  auto run_once = [&]() {
    auto flows = noc::make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.02,
                                           noc::TurnModel::XY);
    auto net = noc::make_baseline_mesh(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, net->flows(), cfg.seed);
    sim::run_simulation(*net, traffic, cfg);
    return std::tuple{net->stats().total_packets(), net->stats().avg_network_latency(),
                      net->stats().activity().buffer_writes};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Load, DifferentSeedsDifferentArrivals) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  auto run_with_seed = [&](std::uint64_t seed) {
    cfg.seed = seed;
    auto flows = noc::make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.02,
                                           noc::TurnModel::XY);
    auto net = noc::make_baseline_mesh(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, net->flows(), cfg.seed);
    sim::run_simulation(*net, traffic, cfg);
    return net->stats().total_packets();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(Load, QueueingGrowsWithRate) {
  // Higher injection -> (weakly) higher total latency; sanity for the
  // Bernoulli sources and source queues.
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 8000;
  auto avg_total = [&](double rate) {
    auto flows =
        noc::make_synthetic_flows(cfg, SyntheticPattern::Neighbor, rate, noc::TurnModel::XY);
    auto net = noc::make_baseline_mesh(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, net->flows(), cfg.seed);
    sim::run_simulation(*net, traffic, cfg);
    return net->stats().avg_total_latency();
  };
  EXPECT_LE(avg_total(0.02), avg_total(0.30));
}

TEST(Load, CreditsKeepVcPoolBounded) {
  // After drain, every output's free-VC queue must be exactly full again.
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  auto flows = noc::make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.05,
                                         noc::TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  sim::BernoulliWorkload traffic(cfg, smart.net->flows(), cfg.seed);
  ASSERT_TRUE(sim::run_simulation(*smart.net, traffic, cfg).drained);
  for (NodeId n = 0; n < 16; ++n) {
    for (Dir o : kAllDirs) {
      const auto& sel =
          smart.net->presets().at(n).xbar[static_cast<std::size_t>(dir_index(o))];
      if (sel.kind == noc::XbarSel::Kind::FromRouter) {
        EXPECT_EQ(smart.net->router(n).free_vcs(o), cfg.vcs_per_port)
            << "router " << n << " output " << dir_name(o);
      }
    }
    EXPECT_EQ(smart.net->nic(n).source_free_vcs(), cfg.vcs_per_port) << "NIC " << n;
  }
}

/// Resident set size of this process in KiB (Linux /proc; -1 if unknown).
long vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = -1;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

TEST(Load, NetworkStateScalesWithFlowsNotNodesTimesFlows) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#endif
  // 16384 nodes, one neighbour flow each. Per-NIC state indexed by the
  // global FlowId costs ~nodes^2/2 ints here (about 0.5 GB); state sized by
  // each NIC's own flows stays far below the ceiling.
  NocConfig cfg = test_config();
  cfg.width = 128;
  cfg.height = 128;
  cfg.fit_derived();
  const MeshDims dims = cfg.dims();
  const long before = vm_rss_kib();
  if (before < 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";
  noc::FlowSet flows;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    const Dir d = dims.coord(n).x + 1 < dims.width() ? Dir::East : Dir::West;
    const NodeId dst = dims.neighbor(n, d);
    flows.add(n, dst, 100.0, noc::xy_path(dims, n, dst));
  }
  auto net = noc::make_baseline_mesh(cfg, std::move(flows));
  ASSERT_EQ(net->flows().size(), dims.nodes());
  const long grown_mib = (vm_rss_kib() - before) / 1024;
  EXPECT_LT(grown_mib, 128) << "128x128 mesh with one flow per node grew the RSS by "
                            << grown_mib << " MiB";
}

}  // namespace
}  // namespace smartnoc
