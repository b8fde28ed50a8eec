// Figure 7: "SMART NoC in action with four flows" - reproduces the paper's
// example, including the per-flow traversal-time annotations (1 / 4 / 7)
// and the credit-path description of Sec. IV.
#include <cstdio>

#include "common/table.hpp"
#include "noc/routing.hpp"
#include "smart/smart_network.hpp"

int main() {
  using namespace smartnoc;
  using noc::RoutePath;

  NocConfig cfg = NocConfig::paper_4x4();

  // The four flows. Green and purple are contention-free end-to-end; red
  // (13 -> 10) and blue (8 -> 3) share the link between routers 9 and 10,
  // so both stop at 9 (shared East output) and 10 (divergent outputs).
  noc::FlowSet fs;
  RoutePath green;
  green.src = 12;
  green.dst = 15;
  green.links = {Dir::East, Dir::East, Dir::East};
  fs.add(12, 15, 100.0, green);

  RoutePath purple;
  purple.src = 0;
  purple.dst = 4;
  purple.links = {Dir::North};
  fs.add(0, 4, 100.0, purple);

  RoutePath red;
  red.src = 13;
  red.dst = 10;
  red.links = {Dir::South, Dir::East};
  fs.add(13, 10, 100.0, red);

  RoutePath blue;
  blue.src = 8;
  blue.dst = 3;
  blue.links = {Dir::East, Dir::East, Dir::East, Dir::South, Dir::South};
  fs.add(8, 3, 100.0, blue);

  auto smart = smart::make_smart_network(cfg, std::move(fs));
  auto& net = *smart.net;

  std::puts("=== Figure 7: SMART NoC in action with four flows ===\n");
  const char* names[] = {"green 12->15", "purple 0->4", "red 13->10", "blue 8->3"};

  TextTable t({"Flow", "route", "stops (preset)", "measured latency", "paper annotation"});
  const char* paper_note[] = {"1 (single cycle)", "1 (single cycle)", "1 -> 4 -> 7",
                              "1 -> 4 -> 7"};
  for (FlowId f = 0; f < 4; ++f) {
    net.offer_packet(f, net.now());
    const auto before = net.stats().total_packets();
    while (net.stats().total_packets() == before) net.tick();
    std::string stops;
    for (NodeId s : smart.presets.stops_per_flow.at(static_cast<std::size_t>(f))) {
      if (!stops.empty()) stops += ",";
      stops += std::to_string(s);
    }
    if (stops.empty()) stops = "(none)";
    t.add_row({names[f], net.flows().at(f).path.str(), stops,
               strf("%.0f cycles", net.stats().per_flow().at(f).avg_network_latency()),
               paper_note[f]});
  }
  t.print();

  std::puts("\nCredit mesh (paper Sec. IV example): credits for NIC3's buffers are");
  const auto& segs = net.segments();
  const auto& nic3 = segs.credit_nic(3);
  std::printf("forwarded by the preset credit crossbars over %d hops to router %d's %s\n",
              nic3.mm, nic3.origin.node, dir_name(nic3.origin.out));
  std::printf("output port (paper: \"credits from NIC3 are forwarded by preset credit\n"
              "crossbars at routers 3, 7 and 11 to router 10's East output port\").\n");
  const auto& r10w = segs.credit_router_input(10, Dir::West).origin;
  const auto& r9w = segs.credit_router_input(9, Dir::West).origin;
  std::printf("Router 10 W-in credits -> router %d %s-out; router 9 W-in credits -> NIC%d.\n",
              r10w.node, dir_name(r10w.out), r9w.node);
  return 0;
}
