// Fig. 7 walkthrough: the paper's four-flow example, traced cycle by
// cycle. Shows where each flow's presets make it stop, watches one blue
// packet move through the network, and prints the credit paths.
#include <cstdio>
#include <string>

#include "noc/routing.hpp"
#include "sim/session.hpp"
#include "smart/smart_network.hpp"

int main() {
  using namespace smartnoc;

  NocConfig cfg = NocConfig::paper_4x4();

  noc::FlowSet fs;
  noc::RoutePath green{12, 15, {Dir::East, Dir::East, Dir::East}};
  noc::RoutePath purple{0, 4, {Dir::North}};
  noc::RoutePath red{13, 10, {Dir::South, Dir::East}};
  noc::RoutePath blue{8, 3, {Dir::East, Dir::East, Dir::East, Dir::South, Dir::South}};
  fs.add(12, 15, 100.0, green);
  fs.add(0, 4, 100.0, purple);
  fs.add(13, 10, 100.0, red);
  fs.add(8, 3, 100.0, blue);

  auto smart = smart::make_smart_network(cfg, std::move(fs));
  auto& net = *smart.net;

  std::puts("Fig. 7: four flows on the 4x4 SMART mesh");
  std::puts("");
  std::puts("   12 --13 --14 --15        green : 12 -> 15   (no stops)");
  std::puts("    |    |    |    |        purple:  0 ->  4   (no stops)");
  std::puts("    8 -- 9 --10 --11        red   : 13 -> 10   (stops 9, 10)");
  std::puts("    |    |    |    |        blue  :  8 ->  3   (stops 9, 10)");
  std::puts("    4 -- 5 -- 6 -- 7        red+blue share link 9->10: they stop at");
  std::puts("    |    |    |    |        the routers before and after it.");
  std::puts("    0 -- 1 -- 2 -- 3");
  std::puts("");

  const char* names[] = {"green", "purple", "red", "blue"};
  for (FlowId f = 0; f < 4; ++f) {
    const auto& stops = smart.presets.stops_per_flow.at(static_cast<std::size_t>(f));
    std::string s;
    for (NodeId n : stops) s += " " + std::to_string(n);
    std::printf("%-6s stops:%s -> zero-load latency 1 + 3*%zu = %zu cycles\n", names[f],
                s.empty() ? " (none)" : s.c_str(), stops.size(), 1 + 3 * stops.size());
  }

  // Trace one blue packet cycle by cycle, single-stepping a borrowed
  // Session (a quiet free-run phase; the packet is hand-offered).
  sim::LambdaWorkload quiet([](noc::Network&) { return std::uint64_t{0}; });
  sim::PhaseSpec trace_phase;
  trace_phase.name = "trace";
  trace_phase.cycles = 1000;
  sim::Session session(net, quiet, {trace_phase});

  std::puts("\ncycle-by-cycle trace of one blue packet (head flit):");
  net.offer_packet(3, net.now());
  const Cycle start = net.now() + 1;
  const auto packets_before = net.stats().total_packets();
  Cycle arrived = 0;
  while (net.stats().total_packets() == packets_before) {
    if (session.done()) {  // trace phase exhausted: the packet never arrived
      std::puts("ERROR: packet not delivered within the trace phase");
      return 1;
    }
    session.step(1);
    const Cycle rel = net.now() - start + 1;
    // Reconstruct the paper's annotations from the known stop schedule.
    if (rel == 1) {
      std::printf("  cycle 1: NIC8 injects; flit bypasses router 8's crossbar and is\n"
                  "           latched at router 9 (paper annotation \"1\")\n");
    } else if (rel == 2 || rel == 5) {
      std::printf("  cycle %llu: Buffer Write at router %d, route entry decoded\n",
                  static_cast<unsigned long long>(rel), rel == 2 ? 9 : 10);
    } else if (rel == 3 || rel == 6) {
      std::printf("  cycle %llu: Switch Allocation at router %d\n",
                  static_cast<unsigned long long>(rel), rel == 3 ? 9 : 10);
    } else if (rel == 4) {
      std::printf("  cycle 4: crossbar + link: latched at router 10 (annotation \"4\")\n");
    } else if (rel == 7) {
      arrived = rel;
      std::printf("  cycle 7: crossbar at 10, bypass through 11, 7, 3, into NIC3\n"
                  "           (annotation \"7\")\n");
    }
  }
  std::printf("head latency: %llu cycles (paper: 7)\n",
              static_cast<unsigned long long>(arrived));

  // Credit mesh, as described in Sec. IV.
  const auto& segs = net.segments();
  const auto& t = segs.credit_nic(3);
  std::printf("\ncredits for NIC3's buffers return to router %d's %s output across %d mm,\n",
              t.origin.node, dir_name(t.origin.out), t.mm);
  std::puts("crossing the preset credit crossbars of routers 3, 7 and 11 in one cycle -");
  std::puts("the router \"does not need to be aware of the reconfiguration\".");
  return 0;
}
