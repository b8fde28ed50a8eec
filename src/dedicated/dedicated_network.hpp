// The paper's "Dedicated" yardstick (Sec. VI):
//
//   "Dedicated is a NoC with 1-cycle dedicated links between all
//    communicating cores tailored to each application. While this has area
//    overheads, we use this design as an ideal yardstick for SMART."
//
// Semantics implemented exactly as the paper evaluates it:
//   * every flow has a private 1-cycle link from its source NIC to its
//    destination; there is no link bandwidth limit ("Dedicated has no
//    bandwidth limitation") - flows inject in parallel, one flit per flow
//    per cycle;
//   * the only contention is at destinations that sink several flows:
//    "they need to stop at a router at the destination to go up serially
//    into the NIC, both in SMART and Dedicated" - modelled as a high-radix
//    sink router with one input port per flow and the same 3-stage
//    BW/SA/ST pipeline as the mesh router (+3 cycles per stop);
//   * single-flow destinations are reached NIC-to-NIC in 1 cycle.
//
// Power: all activity is counted, but the paper plots only link power for
// Dedicated ("only link power is plotted") - the bench follows the paper
// and the full counts stay available for honesty checks. Link length is
// the Manhattan distance between the tiles, which is why the paper calls
// link power "similar" across the three designs.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/flit.hpp"
#include "noc/flow.hpp"
#include "noc/network_iface.hpp"
#include "noc/packet_pool.hpp"
#include "noc/stats.hpp"
#include "noc/trace.hpp"

namespace smartnoc::dedicated {

class DedicatedNetwork final : public noc::Network {
 public:
  DedicatedNetwork(const NocConfig& cfg, noc::FlowSet flows);

  DedicatedNetwork(const DedicatedNetwork&) = delete;
  DedicatedNetwork& operator=(const DedicatedNetwork&) = delete;

  void tick() override;
  Cycle now() const override { return now_; }
  void offer_packet(FlowId flow, Cycle created) override;
  bool drained() const override;
  noc::NetworkStats& stats() override { return stats_; }
  const NocConfig& config() const override { return cfg_; }
  const noc::FlowSet& flows() const override { return flows_; }

  /// Diagnostics: does this destination serialize (more than one in-flow)?
  bool has_sink_router(NodeId dst) const;
  /// Wire length (mm) of a flow's dedicated link.
  int link_mm(FlowId flow) const;
  /// The structure-of-arrays packet store (live() == 0 once drained).
  const noc::PacketPool& packet_pool() const { return pool_; }

  /// Watchdog diagnosis. Dedicated links cannot fault, so only the
  /// packet-level census applies (live/queued packets, oldest in flight).
  noc::StallReport stall_report() const override;

  /// Attach a trace observer. Dedicated links carry no mesh flits, so only
  /// the packet_offered and activity_delta hooks fire (link/heatmap series
  /// stay empty); that is enough for trace capture and the power series.
  void set_observer(noc::TraceObserver* obs) override {
    observer_ = obs;
    observer_wants_deltas_ = obs != nullptr && obs->wants_activity_deltas();
  }

 private:
  /// Per-flow private source: streams one flit per cycle once a packet has
  /// a VC at its delivery point (sink-router input or the dest NIC).
  /// Queued/active packets are pool slots (cold payload lives once in the
  /// PacketPool, same structure-of-arrays split as the mesh datapath).
  struct Source {
    std::deque<noc::PacketSlot> queue;
    std::optional<noc::PacketSlot> active;
    int active_flits = 0;   ///< payload.flits of the active packet
    int next_seq = 0;
    VcId active_vc = kInvalidVc;
    std::deque<VcId> free_vcs;
    int mm = 0;             ///< Manhattan length of the dedicated wire
    bool contended = false; ///< delivery goes through a sink router
    int sink_input = -1;    ///< input index at the sink router
    NodeId dst = kInvalidNode;
  };

  /// High-radix destination router (one input per sinking flow, one output
  /// into the NIC); BW/SA/ST pipeline identical to the mesh router's.
  struct SinkInput {
    FlowId flow = kInvalidFlow;
    std::vector<std::pair<noc::FlitRef, Cycle>> staging;
    bool locked = false;
  };
  struct Sink {
    NodeId node = kInvalidNode;
    std::vector<SinkInput> inputs;
    noc::VcBlock vcs;  ///< every input's VCs in one block, input-major
    std::deque<VcId> nic_free_vcs;  // ejection credits into the NIC
    std::optional<std::pair<int, VcId>> hold;  // (input, in_vc) until tail
    VcId hold_out_vc = kInvalidVc;
    noc::RoundRobinArbiter arb;
  };

  struct NicRx {
    std::map<noc::PacketSlot, std::pair<int, Cycle>> assembling;  // slot -> (flits, head)
  };

  struct PendingCredit {
    Cycle due;
    FlowId flow;      // credit back to this source
    VcId vc;
    bool to_sink_nic; // credit for a sink router's NIC pool instead
    NodeId sink_node = kInvalidNode;
  };

  void tick_impl();
  void nic_deliver(NodeId dst, const noc::FlitRef& f, Cycle arrival, bool via_sink);
  void sink_bw(Sink& s);
  void sink_st(Sink& s);
  void sink_sa(Sink& s);
  /// Input `in`'s VC `v` at sink `s` (also its bit in the SA request mask).
  noc::VcBuffer& sink_vc(Sink& s, int in, int v) { return s.vcs[in * cfg_.vcs_per_port + v]; }

  NocConfig cfg_;
  noc::FlowSet flows_;
  noc::NetworkStats stats_;
  noc::PacketPool pool_;
  std::vector<Source> sources_;              // by flow id
  std::map<NodeId, Sink> sinks_;             // only for contended destinations
  std::vector<NicRx> nic_rx_;                // by node
  std::vector<PendingCredit> credits_;
  std::uint32_t next_packet_id_ = 1;
  noc::TraceObserver* observer_ = nullptr;
  bool observer_wants_deltas_ = false;
  Cycle now_ = 0;
};

}  // namespace smartnoc::dedicated
