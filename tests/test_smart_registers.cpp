// Section V register encoding: exact round-trips, malformed-image
// rejection and program compilation. The reconfiguration flow and its cost
// model are tested through sim::Session in test_scenario.cpp.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "helpers.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "smart/config_reg.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::smart {
namespace {

using noc::FlowSet;
using noc::InputMux;
using noc::PresetTable;
using noc::RouterPreset;
using noc::XbarSel;
using smartnoc::testing::test_config;

RouterPreset sample_preset() {
  RouterPreset p;
  p.input_mux[dir_index(Dir::West)] = InputMux::Bypass;
  p.xbar[dir_index(Dir::East)] = XbarSel{XbarSel::Kind::FromLink, Dir::West};
  p.xbar[dir_index(Dir::Core)] = XbarSel{XbarSel::Kind::FromRouter, Dir::Core};
  p.credit_xbar[dir_index(Dir::West)] = XbarSel{XbarSel::Kind::FromLink, Dir::East};
  p.in_clocked[dir_index(Dir::Core)] = true;
  p.out_clocked[dir_index(Dir::Core)] = true;
  return p;
}

TEST(ConfigReg, EncodeDecodeRoundTrip) {
  const RouterPreset p = sample_preset();
  EXPECT_EQ(decode_preset(encode_preset(p)), p);
}

TEST(ConfigReg, DefaultPresetEncodesToEnumerableWord) {
  // All inputs Buffer, everything Off, no clocks: a stable bit pattern
  // (every output select = 6 = Off).
  const std::uint64_t w = encode_preset(RouterPreset{});
  EXPECT_EQ(decode_preset(w), RouterPreset{});
}

TEST(ConfigReg, RejectsReservedBits) {
  std::uint64_t w = encode_preset(sample_preset());
  w |= 1ULL << 60;
  EXPECT_THROW(decode_preset(w), ConfigError);
}

TEST(ConfigReg, RejectsUnknownSelectCode) {
  std::uint64_t w = encode_preset(RouterPreset{});
  // Force select code 7 into the first xbar field (offset 5).
  w |= 7ULL << 5;
  EXPECT_THROW(decode_preset(w), ConfigError);
}

TEST(ConfigReg, WholeTableRoundTripsThroughBank) {
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(8, 3, 100.0, noc::xy_path(cfg.dims(), 8, 3));
  fs.add(0, 15, 50.0, noc::xy_path(cfg.dims(), 0, 15));
  fs.add(5, 6, 25.0, noc::xy_path(cfg.dims(), 5, 6));
  const auto build = compute_presets(cfg, fs, 8);
  EXPECT_EQ(roundtrip_through_registers(build.table, cfg.dims()), build.table);
}

TEST(RegisterFileTest, AddressingAndBounds) {
  RegisterFile rf(16);
  EXPECT_EQ(RegisterFile::address_of(0), RegisterFile::kBase);
  EXPECT_EQ(RegisterFile::address_of(3), RegisterFile::kBase + 24);
  const std::uint64_t v = encode_preset(sample_preset());
  rf.store(RegisterFile::address_of(7), v);
  EXPECT_EQ(rf.load(RegisterFile::address_of(7)), v);
  EXPECT_THROW(rf.store(RegisterFile::kBase + 4, v), ConfigError);       // misaligned
  EXPECT_THROW(rf.store(RegisterFile::address_of(16), v), ConfigError);  // out of range
  EXPECT_THROW(rf.load(RegisterFile::kBase - 8), ConfigError);
}

TEST(RegisterFileTest, StoreRejectsMalformedImage) {
  RegisterFile rf(4);
  EXPECT_THROW(rf.store(RegisterFile::address_of(0), ~0ULL), ConfigError);
}

TEST(Program, SixteenStoresForSixteenRouters) {
  // The paper: "for a 16-node SMART NoC, there are 16 registers to be set
  // which correspond to 16 instructions".
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(0, 15, 100.0, noc::xy_path(cfg.dims(), 0, 15));
  const auto build = compute_presets(cfg, fs, 8);
  EXPECT_EQ(compile_program(build.table).size(), 16u);
}

TEST(Program, DiffProgramSkipsUnchangedRouters) {
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(0, 3, 100.0, noc::xy_path(cfg.dims(), 0, 3));  // touches row 0 only
  const auto build = compute_presets(cfg, fs, 8);
  RegisterFile rf(16);
  // Preload the bank with the all-off default; only routers 0..3 change.
  const auto diff = compile_program_diff(build.table, rf);
  EXPECT_EQ(diff.size(), 4u);
}

}  // namespace
}  // namespace smartnoc::smart
