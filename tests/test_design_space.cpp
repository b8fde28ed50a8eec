// Design-space property sweep: the invariants that define the system must
// hold across mesh shapes, VC counts, packet sizes and designs - not just
// at the paper's Table II point.
#include <gtest/gtest.h>

#include "dedicated/dedicated_network.hpp"
#include "helpers.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

struct SpacePoint {
  int width, height;
  int vcs;
  int packet_bits;
  std::string name() const {
    return std::to_string(width) + "x" + std::to_string(height) + "_v" + std::to_string(vcs) +
           "_p" + std::to_string(packet_bits);
  }
};

NocConfig cfg_for(const SpacePoint& p) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = p.width;
  cfg.height = p.height;
  cfg.vcs_per_port = p.vcs;
  cfg.credit_bits = 1 + (p.vcs > 2 ? 2 : p.vcs > 1 ? 1 : 1);
  cfg.packet_bits = p.packet_bits;
  cfg.vc_depth_flits = std::max(10, p.packet_bits / cfg.flit_bits);
  cfg.header_bits = 2 * cfg.max_route_entries() + 8;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  cfg.drain_timeout = 50000;
  cfg.validate();
  return cfg;
}

class DesignSpace : public ::testing::TestWithParam<SpacePoint> {};

TEST_P(DesignSpace, ZeroLoadContractHolds) {
  // One lone flow corner to corner: SMART delivers in ceil(D/HPC) bypass
  // segments; the mesh pays 4*(hops)+5.
  const NocConfig cfg = cfg_for(GetParam());
  const NodeId src = 0;
  const NodeId dst = cfg.dims().nodes() - 1;
  const int hops = cfg.dims().hop_distance(src, dst);
  {
    auto mesh = noc::make_baseline_mesh(cfg, smartnoc::testing::one_flow(cfg, src, dst));
    EXPECT_DOUBLE_EQ(smartnoc::testing::single_packet_latency(*mesh, 0), 4.0 * hops + 5.0)
        << GetParam().name();
  }
  {
    auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, src, dst));
    const int segments = (hops + smart.hpc_max - 1) / smart.hpc_max;
    const double expect = 1.0 + 3.0 * (segments - 1);
    EXPECT_DOUBLE_EQ(smartnoc::testing::single_packet_latency(*smart.net, 0), expect)
        << GetParam().name();
  }
}

TEST_P(DesignSpace, LoadedRunConservesAndDrains) {
  const NocConfig cfg = cfg_for(GetParam());
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::BitComplement, 0.04,
                                         noc::TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  sim::BernoulliWorkload traffic(cfg, smart.net->flows(), cfg.seed);
  const auto res = sim::run_simulation(*smart.net, traffic, cfg);
  EXPECT_TRUE(res.drained) << GetParam().name();
  EXPECT_GT(smart.net->stats().total_packets(), 0u) << GetParam().name();
}

TEST_P(DesignSpace, RegistersRoundTripEverywhere) {
  const NocConfig cfg = cfg_for(GetParam());
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.02,
                                         noc::TurnModel::XY);
  const auto build = smart::compute_presets(cfg, flows, smart::effective_hpc_max(cfg));
  EXPECT_EQ(smart::roundtrip_through_registers(build.table, cfg.dims()), build.table)
      << GetParam().name();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignSpace,
    ::testing::Values(SpacePoint{2, 2, 2, 256}, SpacePoint{4, 4, 1, 256},
                      SpacePoint{4, 4, 2, 128}, SpacePoint{4, 4, 4, 256},
                      SpacePoint{8, 8, 2, 256}, SpacePoint{3, 5, 2, 256},
                      SpacePoint{6, 2, 2, 64}, SpacePoint{8, 4, 2, 512}),
    [](const ::testing::TestParamInfo<SpacePoint>& pinfo) { return pinfo.param.name(); });

TEST(DesignSpaceExtra, SingleFlitPacketsWork) {
  // packet == flit: HeadTail flits exercise the is_head && is_tail path.
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.packet_bits = 32;
  cfg.validate();
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 15));
  EXPECT_DOUBLE_EQ(smartnoc::testing::single_packet_latency(*smart.net, 0), 1.0);
  auto mesh = noc::make_baseline_mesh(cfg, smartnoc::testing::one_flow(cfg, 0, 15));
  EXPECT_DOUBLE_EQ(smartnoc::testing::single_packet_latency(*mesh, 0), 29.0);
}

TEST(DesignSpaceExtra, DedicatedScalesToBigMesh) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = 8;
  cfg.height = 8;
  cfg.header_bits = 40;
  cfg.validate();
  dedicated::DedicatedNetwork net(cfg, smartnoc::testing::one_flow(cfg, 0, 63));
  EXPECT_DOUBLE_EQ(smartnoc::testing::single_packet_latency(net, 0), 1.0);
}

TEST(DesignSpaceExtra, HigherFrequencyShrinksReach) {
  // The circuit model couples frequency to HPC_max: 2 GHz -> 8, 3 GHz -> 6
  // (Table I row), 1 GHz -> 16.
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.freq_ghz = 1.0;
  EXPECT_EQ(smart::effective_hpc_max(cfg), 16);
  cfg.freq_ghz = 2.0;
  EXPECT_EQ(smart::effective_hpc_max(cfg), 8);
  cfg.freq_ghz = 3.0;
  EXPECT_EQ(smart::effective_hpc_max(cfg), 6);
}

TEST(DesignSpaceExtra, FullSwingLinksShrinkReach) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.link_swing = Swing::Full;
  EXPECT_EQ(smart::effective_hpc_max(cfg), 6);
}

}  // namespace
}  // namespace smartnoc
