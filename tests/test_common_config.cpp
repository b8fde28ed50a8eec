// NocConfig validation: every inconsistent field combination must be caught
// at construction, with the paper's Table II defaults passing untouched.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "common/config.hpp"

namespace smartnoc {
namespace {

TEST(NocConfig, PaperDefaultsValidate) {
  NocConfig c = NocConfig::paper_4x4();
  EXPECT_NO_THROW(c.validate());
  // Table II values.
  EXPECT_EQ(c.width, 4);
  EXPECT_EQ(c.height, 4);
  EXPECT_EQ(c.flit_bits, 32);
  EXPECT_EQ(c.packet_bits, 256);
  EXPECT_EQ(c.vcs_per_port, 2);
  EXPECT_EQ(c.vc_depth_flits, 10);
  EXPECT_EQ(c.header_bits, 20);
  EXPECT_EQ(c.credit_bits, 2);
  EXPECT_DOUBLE_EQ(c.freq_ghz, 2.0);
  EXPECT_EQ(c.flits_per_packet(), 8);
}

TEST(NocConfig, PacketMustBeMultipleOfFlit) {
  NocConfig c;
  c.packet_bits = 250;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(NocConfig, CutThroughNeedsPacketSizedVc) {
  NocConfig c;
  c.vc_depth_flits = 7;  // packet is 8 flits
  EXPECT_THROW(c.validate(), ConfigError);
  c.vc_depth_flits = 8;
  EXPECT_NO_THROW(c.validate());
}

TEST(NocConfig, CreditWidthMatchesPaperFormula) {
  // credit_bits >= log2(VCs) + 1 valid bit; Table II: 2 VCs -> 2 bits.
  NocConfig c;
  c.vcs_per_port = 2;
  c.credit_bits = 1;
  EXPECT_THROW(c.validate(), ConfigError);
  c.credit_bits = 2;
  EXPECT_NO_THROW(c.validate());
  c.vcs_per_port = 4;
  EXPECT_THROW(c.validate(), ConfigError);
  c.credit_bits = 3;
  EXPECT_NO_THROW(c.validate());
}

TEST(NocConfig, HeaderMustHoldRoute) {
  // An 8x8 mesh needs 2*(7+7+1)=30 route bits; 20-bit header must fail and
  // a widened header must pass.
  NocConfig c;
  c.width = 8;
  c.height = 8;
  EXPECT_THROW(c.validate(), ConfigError);
  c.header_bits = 40;
  EXPECT_NO_THROW(c.validate());
}

TEST(NocConfig, MaxRouteEntries) {
  NocConfig c;
  EXPECT_EQ(c.max_route_entries(), 7);  // 3+3 links + ejection on 4x4
  c.width = 8;
  c.height = 8;
  EXPECT_EQ(c.max_route_entries(), 15);
}

TEST(NocConfig, RejectsBadScalars) {
  {
    NocConfig c;
    c.freq_ghz = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);
  }
  {
    NocConfig c;
    c.flit_bits = 0;
    EXPECT_THROW(c.validate(), ConfigError);
  }
  {
    NocConfig c;
    c.vcs_per_port = 0;
    EXPECT_THROW(c.validate(), ConfigError);
  }
  {
    NocConfig c;
    c.bandwidth_scale = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);
  }
  {
    NocConfig c;
    c.width = 0;
    EXPECT_THROW(c.validate(), ConfigError);
  }
}

TEST(NocConfig, ValidateMessagesArePinned) {
  // One failing config per check, with the exact message it throws: the
  // messages reach users through explorer's exit-2 errors and sweep rows.
  struct Row {
    std::function<void(NocConfig&)> break_it;
    std::string message;
  };
  const Row rows[] = {
      {[](NocConfig& c) { c.width = 0; }, "mesh dimensions must be >= 1x1, got 0x4"},
      {[](NocConfig& c) { c.flit_bits = 0; }, "flit_bits must be positive"},
      {[](NocConfig& c) { c.packet_bits = 250; },
       "packet_bits must be a positive multiple of flit_bits"},
      {[](NocConfig& c) { c.vcs_per_port = 17; }, "vcs_per_port must be in [1,16]"},
      {[](NocConfig& c) { c.vc_depth_flits = 7; },
       "virtual cut-through requires vc_depth_flits >= flits_per_packet (7 < 8)"},
      {[](NocConfig& c) { c.vcs_per_port = 4; },
       "credit_bits must be >= log2(vcs_per_port)+1 = 3"},
      {[](NocConfig& c) { c.width = c.height = 8; },
       "header_bits=20 too small: route needs 30 + vc 1 + type 2"},
      {[](NocConfig& c) { c.freq_ghz = 12.0; }, "freq_ghz out of range (0,10]"},
      {[](NocConfig& c) { c.hop_mm = 0.0; }, "hop_mm must be positive"},
      {[](NocConfig& c) { c.hop_mm = std::numeric_limits<double>::infinity(); },
       "hop_mm must be finite"},
      {[](NocConfig& c) { c.hpc_max_override = -1; }, "hpc_max_override must be >= 0"},
      {[](NocConfig& c) { c.router_stages = 2; },
       "this microarchitecture is the paper's 3-stage router"},
      {[](NocConfig& c) { c.bandwidth_scale = -1.0; }, "bandwidth_scale must be positive"},
      {[](NocConfig& c) { c.bandwidth_scale = std::numeric_limits<double>::infinity(); },
       "bandwidth_scale must be finite"},
      {[](NocConfig& c) { c.retry_limit = -1; }, "retry_limit must be >= 0"},
      {[](NocConfig& c) { c.retry_backoff_cycles = 0; },
       "retry_backoff_cycles must be positive"},
      {[](NocConfig& c) { c.shard_threads = 257; }, "shard_threads must be in [1,256]"},
  };
  for (const Row& row : rows) {
    NocConfig c;
    row.break_it(c);
    try {
      c.validate();
      ADD_FAILURE() << "no throw, expected: " << row.message;
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), row.message);
    }
  }
}

TEST(NocConfig, CyclePeriod) {
  NocConfig c;
  EXPECT_DOUBLE_EQ(c.cycle_ps(), 500.0);  // 2 GHz
  c.freq_ghz = 4.0;
  EXPECT_DOUBLE_EQ(c.cycle_ps(), 250.0);
}

TEST(DesignNames, Stable) {
  EXPECT_STREQ(design_name(Design::Mesh), "Mesh");
  EXPECT_STREQ(design_name(Design::Smart), "SMART");
  EXPECT_STREQ(design_name(Design::Dedicated), "Dedicated");
}

}  // namespace
}  // namespace smartnoc
