// The seed's full-scan cycle loop, kept as a test oracle for the active-set
// kernel in src/noc/network.cpp.
//
// FullScanKernel drives a production MeshNetwork's routers, NICs and credit
// wheel directly (it is the network's one friend), without its scheduler:
// every cycle it advances the clock, delivers the credits due now by
// scanning every wheel bucket, then runs Buffer Write, Switch Traversal and
// Switch Allocation on every router and injection on every NIC, in node
// order, and checks that each credit sent this cycle is due after the
// paper's credit latency (1 cycle, 2 on the baseline mesh's extra link
// cycle). Switch Traversal and injection run through the network's own
// traverse and inject, which carry what routers and NICs return along the
// segment and credit tables. drained() walks the whole mesh.
// Nothing here reads the active lists or the in-flight credit counter, so a
// component the production kernel forgets to activate, a credit filed in
// the wrong wheel bucket or a counter that drifts shows up as a result that
// differs from this loop's.
//
// Routers and NICs with nothing to do are ticked anyway (their phases are
// no-ops then), which is why this loop is the oracle and not the kernel:
// it costs O(nodes) per cycle. Faults go through the network's public
// apply_fault_action between ticks, exactly as under the production kernel.
#pragma once

#include <array>

#include "common/error.hpp"
#include "noc/network.hpp"

namespace smartnoc::testing {

class FullScanKernel final : public noc::Network {
 public:
  /// Takes over `net`, which must be pristine (no ticks, no traffic) and
  /// single-shard: the full scan has no sharded protocol.
  explicit FullScanKernel(noc::MeshNetwork& net) : net_(net) {
    SMARTNOC_CHECK(net.now() == 0 && net.drained(), "the oracle needs a pristine network");
    SMARTNOC_CHECK(net.shards_.size() == 1 && !net.force_sharded_,
                   "the oracle drives single-shard networks only");
  }

  void tick() override {
    noc::MeshNetwork& m = net_;
    m.now_ += 1;
    noc::ShardState& s = m.shards_.front();
    for (auto& bucket : s.wheel) {
      for (std::size_t k = 0; k < bucket.size();) {
        const noc::InFlightCredit c = bucket[k];
        SMARTNOC_CHECK(c.due >= m.now_, "a credit stayed in the wheel past its due cycle");
        if (c.due != m.now_) {
          ++k;
          continue;
        }
        bucket[k] = bucket.back();
        bucket.pop_back();
        s.credits_in_flight -= 1;
        m.deliver_credit(c.target, c.vc);
      }
    }
    std::array<std::size_t, noc::kCreditWheelSize> pending{};
    for (std::size_t b = 0; b < pending.size(); ++b) pending[b] = s.wheel[b].size();

    noc::ActivityCounters& act = m.stats_.activity();
    for (noc::Router& r : m.routers_) r.buffer_write(m.now_, act);
    for (const noc::Router& r : m.routers_) m.traverse(s, act, r.id());
    for (noc::Router& r : m.routers_) r.switch_allocation(m.now_, act);
    for (const noc::Nic& n : m.nics_) m.inject(s, act, n.node());
    act.clocked_inport_cycles += static_cast<std::uint64_t>(m.clocked_in_total_);
    act.clocked_outport_cycles += static_cast<std::uint64_t>(m.clocked_out_total_);

    // Credits are appended as they are sent: what lies past each bucket's
    // old end left this cycle, due one cycle after its VC freed (two on
    // the baseline mesh). Routers free VCs this cycle; a NIC frees its
    // receive VC when a tail lands, which on the mesh is the next cycle.
    const Cycle link = m.opt_.extra_link_cycle ? 1 : 0;
    const Cycle earliest = m.now_ + 1 + link;
    for (std::size_t b = 0; b < pending.size(); ++b) {
      for (std::size_t k = pending[b]; k < s.wheel[b].size(); ++k) {
        const Cycle due = s.wheel[b][k].due;
        SMARTNOC_CHECK(due >= earliest && due <= earliest + link,
                       "a credit's latency left the paper's model");
      }
    }
  }

  bool drained() const override {
    for (const auto& bucket : net_.shards_.front().wheel) {
      if (!bucket.empty()) return false;
    }
    for (const noc::Router& r : net_.routers_) {
      if (r.has_traffic()) return false;
    }
    for (const noc::Nic& n : net_.nics_) {
      if (!n.idle()) return false;
    }
    return true;
  }

  Cycle now() const override { return net_.now(); }
  void offer_packet(FlowId flow, Cycle created) override { net_.offer_packet(flow, created); }
  noc::NetworkStats& stats() override { return net_.stats(); }
  const NocConfig& config() const override { return net_.config(); }
  const noc::FlowSet& flows() const override { return net_.flows(); }
  noc::StallReport stall_report() const override { return net_.stall_report(); }

  /// The driven network (introspection, fault actions).
  noc::MeshNetwork& mesh() { return net_; }

 private:
  noc::MeshNetwork& net_;
};

}  // namespace smartnoc::testing
