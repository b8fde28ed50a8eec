// Power model: category accounting, link-energy derivation from the
// circuit model, and the paper's qualitative power claims on live traffic.
#include <gtest/gtest.h>

#include "dedicated/dedicated_network.hpp"
#include "helpers.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::power {
namespace {

using smartnoc::testing::test_config;

TEST(EnergyParams, LinkEnergyComesFromCircuitModel) {
  const NocConfig cfg = test_config();  // 2 GHz, low swing, 32-bit flits
  const EnergyParams p = EnergyParams::for_config(cfg);
  // 104 fJ/b/mm x 32 bits = 3.33 pJ per flit-mm (paper's headline number).
  EXPECT_NEAR(p.link_flit_pj_per_mm, 0.104 * 32, 0.05);
  EXPECT_NEAR(p.link_credit_pj_per_mm, 0.104 * 2, 0.01);
}

TEST(EnergyParams, FullSwingLinkCostsLessPerBitAt2GHz) {
  // Table I: full swing is 95 vs low swing 104 fJ/b/mm at 2 Gb/s - the VLR
  // pays energy for reach.
  NocConfig cfg = test_config();
  cfg.link_swing = Swing::Full;
  const double full = EnergyParams::for_config(cfg).link_flit_pj_per_mm;
  cfg.link_swing = Swing::Low;
  const double low = EnergyParams::for_config(cfg).link_flit_pj_per_mm;
  EXPECT_LT(full, low);
}

TEST(ComputePower, ZeroWindowIsZero) {
  const NocConfig cfg = test_config();
  noc::ActivityCounters act;
  act.buffer_writes = 1000;
  EXPECT_DOUBLE_EQ(compute_power(cfg, act, 0, EnergyParams{}).total(), 0.0);
}

TEST(ComputePower, CategoriesAreDisjointAndScaleLinearly) {
  const NocConfig cfg = test_config();
  EnergyParams p;
  noc::ActivityCounters act;
  act.buffer_writes = 1000;
  act.alloc_grants = 500;
  act.xbar_flit_traversals = 800;
  act.link_flit_mm = 2000;
  const auto b1 = compute_power(cfg, act, 10000, p);
  EXPECT_GT(b1.buffer_w, 0.0);
  EXPECT_GT(b1.allocator_w, 0.0);
  EXPECT_GT(b1.xbar_pipe_w, 0.0);
  EXPECT_GT(b1.link_w, 0.0);
  // Doubling every count doubles every category.
  noc::ActivityCounters act2 = act;
  act2.buffer_writes *= 2;
  act2.alloc_grants *= 2;
  act2.xbar_flit_traversals *= 2;
  act2.link_flit_mm *= 2;
  const auto b2 = compute_power(cfg, act2, 10000, p);
  EXPECT_NEAR(b2.buffer_w, 2 * b1.buffer_w, 1e-12);
  EXPECT_NEAR(b2.allocator_w, 2 * b1.allocator_w, 1e-12);
  EXPECT_NEAR(b2.xbar_pipe_w, 2 * b1.xbar_pipe_w, 1e-12);
  EXPECT_NEAR(b2.link_w, 2 * b1.link_w, 1e-12);
}

struct ThreeWayRun {
  PowerBreakdown mesh, smart, dedicated;
};

ThreeWayRun run_three_ways() {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 20000;
  auto mk = [&] {
    return noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Neighbor, 0.05,
                                     noc::TurnModel::XY);
  };
  const EnergyParams p = EnergyParams::for_config(cfg);
  ThreeWayRun out;
  {
    auto net = noc::make_baseline_mesh(cfg, mk());
    sim::BernoulliWorkload t(cfg, net->flows(), cfg.seed);
    const auto r = sim::run_simulation(*net, t, cfg);
    out.mesh = compute_power(cfg, r.activity, r.measure_cycles, p);
  }
  {
    auto smart = smart::make_smart_network(cfg, mk());
    sim::BernoulliWorkload t(cfg, smart.net->flows(), cfg.seed);
    const auto r = sim::run_simulation(*smart.net, t, cfg);
    out.smart = compute_power(cfg, r.activity, r.measure_cycles, p);
  }
  {
    dedicated::DedicatedNetwork net(cfg, mk());
    sim::BernoulliWorkload t(cfg, net.flows(), cfg.seed);
    const auto r = sim::run_simulation(net, t, cfg);
    out.dedicated = compute_power(cfg, r.activity, r.measure_cycles, p);
  }
  return out;
}

TEST(PowerClaims, MeshBurnsMoreThanSmart) {
  // Paper: "SMART reduces power by 2.2X on average both due to bypassing
  // of buffers, and due to clock gating". Exact ratio is app-dependent;
  // the invariant is a substantial Mesh > SMART gap.
  const auto r = run_three_ways();
  EXPECT_GT(r.mesh.total(), 1.5 * r.smart.total());
  EXPECT_GT(r.mesh.buffer_w, r.smart.buffer_w);
}

TEST(PowerClaims, LinkPowerSimilarAcrossDesigns) {
  // "All designs send the same traffic through the network, and hence have
  // similar link power."
  const auto r = run_three_ways();
  EXPECT_NEAR(r.smart.link_w, r.mesh.link_w, 0.15 * r.mesh.link_w);
  EXPECT_NEAR(r.dedicated.link_w, r.mesh.link_w, 0.15 * r.mesh.link_w);
}

TEST(PowerClaims, DedicatedRouterPowerNegligibleOnPipelineTraffic) {
  // Neighbor traffic has one flow per destination: Dedicated never buffers,
  // so its non-link power must be (near) zero.
  const auto r = run_three_ways();
  EXPECT_LT(r.dedicated.buffer_w + r.dedicated.allocator_w + r.dedicated.xbar_pipe_w,
            0.05 * r.dedicated.link_w + 1e-9);
}

}  // namespace
}  // namespace smartnoc::power
