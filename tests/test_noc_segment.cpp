// Segment construction and validation: forward walks, credit mirroring,
// and rejection of inconsistent presets.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "noc/flow.hpp"
#include "noc/routing.hpp"
#include "noc/segment.hpp"
#include "smart/preset_computer.hpp"

namespace smartnoc {
namespace {

using noc::Endpoint;
using noc::FlowSet;
using noc::InputMux;
using noc::PresetTable;
using noc::SegmentTable;
using noc::XbarSel;

NocConfig cfg4() { return NocConfig::paper_4x4(); }

TEST(Segments, AllBufferGivesSingleLinkSegments) {
  const NocConfig cfg = cfg4();
  SegmentTable t(cfg.dims(), cfg, PresetTable::all_buffer(cfg.dims()), 1);
  // Injection: NIC n -> router n's Core input, zero wire.
  for (NodeId n = 0; n < 16; ++n) {
    const auto& inj = t.injection(n);
    EXPECT_FALSE(inj.ep.is_nic);
    EXPECT_EQ(inj.ep.node, n);
    EXPECT_EQ(inj.ep.in, Dir::Core);
    EXPECT_EQ(inj.mm, 0);
    EXPECT_EQ(inj.bypassed, 0);
  }
  // Router-to-router: exactly one link.
  const auto& seg = t.output(5, Dir::East);
  ASSERT_TRUE(seg.armed);
  EXPECT_EQ(seg.ep.node, 6);
  EXPECT_EQ(seg.ep.in, Dir::West);
  EXPECT_EQ(seg.mm, 1);
  EXPECT_EQ(seg.bypassed, 0);
  // Edge ports are off.
  EXPECT_FALSE(t.output(3, Dir::East).armed);
  EXPECT_FALSE(t.output(0, Dir::South).armed);
  // Ejection stubs.
  const auto& ej = t.output(9, Dir::Core);
  ASSERT_TRUE(ej.armed);
  EXPECT_TRUE(ej.ep.is_nic);
  EXPECT_EQ(ej.ep.node, 9);
  EXPECT_EQ(ej.mm, 0);
}

TEST(Segments, FullBypassChainFromPresets) {
  // One flow 0 -> 3 across the bottom row: SMART presets must produce a
  // single injection segment 0 -> NIC3 spanning 3 mm and 4 crossbars.
  const NocConfig cfg = cfg4();
  FlowSet fs;
  fs.add(0, 3, 100.0, noc::xy_path(cfg.dims(), 0, 3));
  const auto build = smart::compute_presets(cfg, fs, 8);
  SegmentTable t(cfg.dims(), cfg, build.table, 8);
  const auto& inj = t.injection(0);
  EXPECT_TRUE(inj.ep.is_nic);
  EXPECT_EQ(inj.ep.node, 3);
  EXPECT_EQ(inj.mm, 3);
  EXPECT_EQ(inj.bypassed, 4);
  EXPECT_EQ(t.bypass_routers(inj), (std::vector<NodeId>{0, 1, 2, 3}));
  const auto links = t.links(inj);
  EXPECT_EQ(std::vector<noc::SegLink>(links.begin(), links.end()),
            (std::vector<noc::SegLink>{{0, Dir::East}, {1, Dir::East}, {2, Dir::East}}));
  // The destination NIC's credit path leads back to NIC 0's source queue.
  const auto& credit = t.credit_nic(3);
  ASSERT_TRUE(credit.armed);
  EXPECT_TRUE(credit.origin.is_nic);
  EXPECT_EQ(credit.origin.node, 0);
  EXPECT_EQ(credit.mm, 3);
}

TEST(Segments, CreditMirrorsPaperFigure7) {
  // Blue flow stopping at 9 and 10 (see the timing test): the credit for
  // NIC3's buffers must come to rest at router 10's East output, crossing
  // the credit crossbars of routers 3, 7 and 11 - the paper's own example.
  const NocConfig cfg = cfg4();
  FlowSet fs;
  noc::RoutePath blue;
  blue.src = 8;
  blue.dst = 3;
  blue.links = {Dir::East, Dir::East, Dir::East, Dir::South, Dir::South};
  fs.add(8, 3, 100.0, blue);
  noc::RoutePath red;
  red.src = 13;
  red.dst = 10;
  red.links = {Dir::South, Dir::East};
  fs.add(13, 10, 100.0, red);
  const auto build = smart::compute_presets(cfg, fs, 8);
  SegmentTable t(cfg.dims(), cfg, build.table, 8);

  const auto& nic3 = t.credit_nic(3);
  ASSERT_TRUE(nic3.armed);
  EXPECT_FALSE(nic3.origin.is_nic);
  EXPECT_EQ(nic3.origin.node, 10);
  EXPECT_EQ(nic3.origin.out, Dir::East);
  EXPECT_EQ(nic3.mm, 3);
  EXPECT_EQ(nic3.xbar_hops, 3);  // credit xbars at 3, 7, 11
  // The forward segment it mirrors: router 10's East output bypasses 11
  // and 7 and enters NIC3 through router 3's crossbar.
  const auto& out10 = t.output(10, Dir::East);
  EXPECT_EQ(out10.bypassed, 3);
  EXPECT_EQ(t.bypass_routers(out10), (std::vector<NodeId>{11, 7, 3}));

  // Router 10's West input is fed by router 9's East output...
  const auto& r10 = t.credit_router_input(10, Dir::West);
  ASSERT_TRUE(r10.armed);
  EXPECT_EQ(r10.origin.node, 9);
  EXPECT_EQ(r10.origin.out, Dir::East);
  // ...and router 9's West input by NIC8 (the paper: "credits from router
  // 9's West input port are sent to NIC8").
  const auto& r9w = t.credit_router_input(9, Dir::West);
  ASSERT_TRUE(r9w.armed);
  EXPECT_TRUE(r9w.origin.is_nic);
  EXPECT_EQ(r9w.origin.node, 8);
}

TEST(Segments, RejectsDanglingBypass) {
  const NocConfig cfg = cfg4();
  PresetTable t = PresetTable::all_buffer(cfg.dims());
  // Input preset to bypass with no crosspoint selecting it.
  t.at(5).input_mux[dir_index(Dir::West)] = InputMux::Bypass;
  EXPECT_THROW(SegmentTable(cfg.dims(), cfg, t, 8), ConfigError);
}

TEST(Segments, RejectsDuplicatedCrosspoint) {
  const NocConfig cfg = cfg4();
  PresetTable t = PresetTable::all_buffer(cfg.dims());
  t.at(5).input_mux[dir_index(Dir::West)] = InputMux::Bypass;
  t.at(5).xbar[dir_index(Dir::East)] = XbarSel{XbarSel::Kind::FromLink, Dir::West};
  t.at(5).xbar[dir_index(Dir::North)] = XbarSel{XbarSel::Kind::FromLink, Dir::West};
  EXPECT_THROW(SegmentTable(cfg.dims(), cfg, t, 8), ConfigError);
}

TEST(Segments, RejectsHpcOverrun) {
  // A 3 mm bypass chain with HPC_max 2 must be rejected.
  const NocConfig cfg = cfg4();
  FlowSet fs;
  fs.add(0, 3, 100.0, noc::xy_path(cfg.dims(), 0, 3));
  const auto build = smart::compute_presets(cfg, fs, 8);  // presets allow 3 mm
  EXPECT_THROW(SegmentTable(cfg.dims(), cfg, build.table, 2), ConfigError);
}

TEST(Segments, RejectsCreditMismatch) {
  // Break the credit transpose at one router: construction must fail the
  // forward/credit cross-validation.
  const NocConfig cfg = cfg4();
  FlowSet fs;
  fs.add(0, 3, 100.0, noc::xy_path(cfg.dims(), 0, 3));
  auto build = smart::compute_presets(cfg, fs, 8);
  build.table.at(1).credit_xbar[dir_index(Dir::West)] =
      XbarSel{XbarSel::Kind::Off, Dir::Core};
  EXPECT_THROW(SegmentTable(cfg.dims(), cfg, build.table, 8), ConfigError);
}

TEST(Segments, SmartPresetsAlwaysValidateOnRandomFlowSets) {
  // Property: compute_presets output must always construct a SegmentTable
  // for any set of XY-routed flows (here: all single-source fanouts).
  const NocConfig cfg = cfg4();
  for (NodeId src = 0; src < 16; ++src) {
    FlowSet fs;
    for (NodeId dst = 0; dst < 16; ++dst) {
      if (dst != src) fs.add(src, dst, 50.0, noc::xy_path(cfg.dims(), src, dst));
    }
    const auto build = smart::compute_presets(cfg, fs, 8);
    EXPECT_NO_THROW(SegmentTable(cfg.dims(), cfg, build.table, 8)) << "src " << src;
  }
}

}  // namespace
}  // namespace smartnoc
