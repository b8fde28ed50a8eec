// Shared helpers for the tests: single-packet latency probes, small
// flow-set builders, a registrable one-flow workload, the byte mutator of
// the seeded parser campaigns, and a metrics-registry family total.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/network_iface.hpp"
#include "noc/routing.hpp"
#include "obs/metrics.hpp"
#include "sim/workload.hpp"

namespace smartnoc::testing {

/// A 4x4 Table II configuration with short simulation windows for tests.
inline NocConfig test_config() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 20000;
  cfg.drain_timeout = 20000;
  return cfg;
}

/// Injects one packet on `flow` at cycle `at` and runs until it is
/// delivered (or max_cycles). Returns the measured network latency.
inline double single_packet_latency(noc::Network& net, FlowId flow, Cycle max_cycles = 1000) {
  net.offer_packet(flow, net.now());
  const auto before = net.stats().total_packets();
  for (Cycle c = 0; c < max_cycles; ++c) {
    net.tick();
    if (net.stats().total_packets() > before) {
      return net.stats().per_flow().at(flow).avg_network_latency();
    }
  }
  return -1.0;
}

/// Runs the network until it drains (bounded).
inline bool run_to_drain(noc::Network& net, Cycle max_cycles = 5000) {
  for (Cycle c = 0; c < max_cycles; ++c) {
    if (net.drained()) return true;
    net.tick();
  }
  return net.drained();
}

/// One-flow flow set along the XY path.
inline noc::FlowSet one_flow(const NocConfig& cfg, NodeId src, NodeId dst,
                             double mbps = 100.0) {
  noc::FlowSet fs;
  fs.add(src, dst, mbps, noc::xy_path(cfg.dims(), src, dst));
  return fs;
}

/// A user workload: one flow along the XY path from `src` to `dst`.
class OneFlowFactory final : public sim::WorkloadFactory {
 public:
  OneFlowFactory(NodeId src, NodeId dst, double mbps) : src_(src), dst_(dst), mbps_(mbps) {}
  noc::FlowSet flows(NocConfig& cfg, double injection) const override {
    cfg.bandwidth_scale *= injection;
    return one_flow(cfg, src_, dst_, mbps_);
  }

 private:
  NodeId src_;
  NodeId dst_;
  double mbps_;
};

/// Registers a OneFlowFactory under `name` and returns the name.
inline std::string one_flow_workload(const std::string& name, NodeId src, NodeId dst,
                                     double mbps = 100.0) {
  sim::WorkloadRegistry::instance().add(name, std::make_shared<OneFlowFactory>(src, dst, mbps));
  return name;
}

/// One to three byte edits: flip a bit, insert a byte (from `alphabet` half
/// of the time, any byte otherwise), delete one, or duplicate one.
inline std::string mutate(std::string s, Xoshiro256& rng, std::string_view alphabet) {
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int k = 0; k < edits && !s.empty(); ++k) {
    const std::size_t at = rng.below(s.size());
    switch (rng.below(4)) {
      case 0: s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8))); break;
      case 1: {
        const char c = rng.below(2) == 0 ? alphabet[rng.below(alphabet.size())]
                                         : static_cast<char>(rng.below(256));
        s.insert(at, 1, c);
        break;
      }
      case 2: s.erase(at, 1); break;
      default: s.insert(at, 1, s[at]); break;
    }
  }
  return s;
}

/// The sum of a global-registry family's values over its labels.
inline double sum_family(const std::string& name) {
  double s = 0.0;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name == name) s += m.value;
  }
  return s;
}

}  // namespace smartnoc::testing
