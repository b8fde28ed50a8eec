// VCD dump generation: well-formed output, cross-checked toggle counts
// (every pulse is one flit-mm), and the multi-hop single-cycle signature.
#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "sim/vcd.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::sim {
namespace {

using smartnoc::testing::test_config;

struct VcdText {
  int vars = 0;
  std::map<std::string, int> rises;  // code -> count
  std::map<std::string, int> falls;
  std::vector<long long> timestamps;
  bool has_header = false;
  bool has_enddefinitions = false;
};

VcdText parse(const std::string& text) {
  VcdText v;
  std::istringstream in(text);
  std::string line;
  bool in_dumpvars = false;
  while (std::getline(in, line)) {
    if (line.rfind("$timescale", 0) == 0) v.has_header = true;
    if (line.rfind("$enddefinitions", 0) == 0) v.has_enddefinitions = true;
    if (line.rfind("$var", 0) == 0) v.vars += 1;
    if (line.rfind("$dumpvars", 0) == 0) {
      in_dumpvars = true;  // initial values, not edges
      continue;
    }
    if (in_dumpvars) {
      if (line.rfind("$end", 0) == 0) in_dumpvars = false;
      continue;
    }
    if (!line.empty() && line[0] == '#') {
      v.timestamps.push_back(std::stoll(line.substr(1)));
    }
    if (!line.empty() && (line[0] == '0' || line[0] == '1') && line.size() >= 2 &&
        v.has_enddefinitions) {
      (line[0] == '1' ? v.rises : v.falls)[line.substr(1)] += 1;
    }
  }
  return v;
}

TEST(Vcd, HeaderAndDeclarations) {
  VcdTracer tracer(MeshDims(4, 4), 500.0);
  const auto v = parse(tracer.str());
  EXPECT_TRUE(v.has_header);
  EXPECT_TRUE(v.has_enddefinitions);
  // 48 directed links + 16 NIC ejection wires.
  EXPECT_EQ(v.vars, 48 + 16);
}

TEST(Vcd, ToggleCountEqualsLinkActivity) {
  // Attach the tracer for a full measured run: pulses == flit-mm counted
  // by the activity counters (each link is 1 mm).
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                         noc::TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  smart.net->set_observer(&tracer);
  sim::BernoulliWorkload traffic(cfg, smart.net->flows(), cfg.seed);
  sim::run_simulation(*smart.net, traffic, cfg);
  smart.net->set_observer(nullptr);
  // Whole-run comparison: activity counts from cycle 0 (warmup counters
  // were reset, so compare against the tracer minus nothing: re-derive by
  // total = measured-window only is not available; instead check bounds).
  EXPECT_GT(tracer.link_toggles(), smart.net->stats().activity().link_flit_mm);
  EXPECT_GT(tracer.nic_deliveries(), 0u);
}

TEST(Vcd, ExactToggleMatchOnSinglePacket) {
  const NocConfig cfg = test_config();
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 3));
  VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  smart.net->set_observer(&tracer);
  smart.net->offer_packet(0, smart.net->now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*smart.net));
  smart.net->set_observer(nullptr);
  // 8 flits x 3 mm bypass chain = 24 link pulses; 8 NIC deliveries.
  EXPECT_EQ(tracer.link_toggles(), 24u);
  EXPECT_EQ(tracer.link_toggles(), smart.net->stats().activity().link_flit_mm);
  EXPECT_EQ(tracer.nic_deliveries(), 8u);
}

TEST(Vcd, MultiHopSignatureSameCyclePulses) {
  // A full-bypass flit crosses all three links of 0->3 in ONE cycle: the
  // dump must show the three link wires rising at the same timestamp.
  const NocConfig cfg = test_config();
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 3));
  VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  smart.net->set_observer(&tracer);
  smart.net->offer_packet(0, smart.net->now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*smart.net));
  smart.net->set_observer(nullptr);
  const std::string text = tracer.str();
  // Find the first timestamp after #0 and count rising edges under it.
  std::istringstream in(text);
  std::string line;
  bool in_first_event = false;
  int rises_in_first_event = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#' && line != "#0") {
      if (in_first_event) break;
      in_first_event = true;
      continue;
    }
    if (in_first_event && !line.empty() && line[0] == '1') rises_in_first_event += 1;
  }
  EXPECT_EQ(rises_in_first_event, 3 + 1) << "3 links + the NIC ejection wire";
}

TEST(Vcd, RisesAndFallsBalance) {
  const NocConfig cfg = test_config();
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 5, 6));
  VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  smart.net->set_observer(&tracer);
  smart.net->offer_packet(0, smart.net->now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*smart.net));
  const auto v = parse(tracer.str());
  for (const auto& [code, n] : v.rises) {
    const int falls = v.falls.count(code) ? v.falls.at(code) : 0;
    EXPECT_EQ(falls, n) << code;
  }
}

TEST(Vcd, TimestampsMonotone) {
  const NocConfig cfg = test_config();
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 15));
  VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  smart.net->set_observer(&tracer);
  for (int i = 0; i < 4; ++i) smart.net->offer_packet(0, smart.net->now() + i);
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*smart.net));
  const auto v = parse(tracer.str());
  for (std::size_t i = 1; i < v.timestamps.size(); ++i) {
    EXPECT_LT(v.timestamps[i - 1], v.timestamps[i]);
  }
}

TEST(Vcd, CodesAreUniqueAndPrintable) {
  VcdTracer tracer(MeshDims(8, 8), 500.0);
  std::set<std::string> codes;
  for (NodeId n = 0; n < 64; ++n) {
    for (Dir d : kMeshDirs) {
      if (MeshDims(8, 8).has_neighbor(n, d)) {
        const auto c = tracer.link_code(n, d);
        for (char ch : c) {
          EXPECT_GE(ch, '!');
          EXPECT_LE(ch, '~');
        }
        EXPECT_TRUE(codes.insert(c).second) << "duplicate code " << c;
      }
    }
    EXPECT_TRUE(codes.insert(tracer.nic_code(n)).second);
  }
}

}  // namespace
}  // namespace smartnoc::sim
