// Trace observation: a hook the network calls as flits move, feeding the
// VCD dumper (the paper's power methodology runs PrimePower on VCD
// activity from post-layout simulation; sim/vcd.hpp reproduces the VCD
// side of that flow) and any custom instrumentation.
//
// The network hands observers the hot FlitRef plus the PacketPool that
// resolves it: under the structure-of-arrays flit split the cold fields
// (packet id, flow, route, timestamps) live once per packet in the pool,
// and an observer pays the slot lookup only on the paths that actually
// read payload (e.g. the probe's bounded Chrome-event capture) - the
// common counting paths never touch it.
#pragma once

#include <span>

#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/packet_pool.hpp"
#include "noc/segment.hpp"
#include "noc/stats.hpp"

namespace smartnoc::noc {

class TraceObserver {
 public:
  virtual ~TraceObserver() = default;

  /// A flit crossed the directed mesh link (from, out) during `cycle`.
  /// Called once per link of a multi-hop bypass segment - a SMART flit
  /// produces several calls with the same cycle, which is exactly the
  /// single-cycle multi-hop signature in the resulting waveform.
  /// `pool.at(flit.slot)` resolves the cold payload when needed.
  virtual void flit_on_link(NodeId from, Dir out, const FlitRef& flit,
                            const PacketPool& pool, Cycle cycle) = 0;

  /// A flit was latched at a stop router (is_nic=false) or consumed by the
  /// destination NIC (is_nic=true).
  virtual void flit_latched(bool is_nic, NodeId node, const FlitRef& flit,
                            const PacketPool& pool, Cycle cycle) = 0;

  /// A flit traversed a whole segment: every link in `links` (the
  /// segment table's cold side for `seg`, so SegmentTable::kLinkPad
  /// entries from its start are readable) during `now`, then a latch at
  /// `seg.ep` at `arrival`. This is the one call the network actually
  /// makes per delivery - the default fans out to flit_on_link/
  /// flit_latched, so simple observers implement only those; hot observers
  /// (the telemetry probe) override this to amortize the virtual dispatch
  /// over the segment and resolve payload through `pool` only on the
  /// branches that read it.
  virtual void segment_traversed(const Segment& seg, std::span<const SegLink> links,
                                 const FlitRef& flit, const PacketPool& pool, Cycle now,
                                 Cycle arrival) {
    for (const auto& [from, out] : links) flit_on_link(from, out, flit, pool, now);
    flit_latched(seg.ep.is_nic, seg.ep.node, flit, pool, arrival);
  }

  /// A packet of `flow` was offered to the source NIC `src` at `created`
  /// (network time). This is the injection event a telemetry probe records
  /// to a packet trace: replaying exactly these (cycle, flow) pairs
  /// re-executes the run bit-identically. Default no-op so observers that
  /// only watch flit movement (the VCD dumper) are unaffected.
  virtual void packet_offered(FlowId flow, NodeId src, Cycle created) {
    (void)flow;
    (void)src;
    (void)created;
  }

  /// A packet was permanently dropped (fault with the retry budget spent,
  /// or an offer on a degraded flow). Default no-op.
  virtual void packet_dropped(FlowId flow, NodeId src, Cycle cycle) {
    (void)flow;
    (void)src;
    (void)cycle;
  }

  /// A packet lost to a fault was re-queued at its source NIC for another
  /// transmission attempt (exponential backoff applies). Default no-op.
  virtual void packet_retransmitted(FlowId flow, NodeId src, Cycle cycle) {
    (void)flow;
    (void)src;
    (void)cycle;
  }

  /// Per-tick activity delta: the field-wise change of the network's
  /// ActivityCounters over the tick that ended at `cycle`. Emitted only
  /// when wants_activity_deltas() returns true (the network caches the
  /// answer at set_observer time, so observers that do not need power
  /// series pay nothing). Every counter mutation happens strictly inside
  /// tick() and stats resets happen between ticks, so summing the deltas
  /// over a window reproduces the window's counters exactly - this is what
  /// lets the per-epoch power series match the end-of-run Fig. 10b
  /// breakdown bit-for-bit.
  virtual void activity_delta(const ActivityCounters& delta, Cycle cycle) {
    (void)delta;
    (void)cycle;
  }

  /// Opt-in for the per-tick activity_delta stream (snapshot/diff of ten
  /// uint64 counters per tick - cheap, but not free).
  virtual bool wants_activity_deltas() const { return false; }
};

}  // namespace smartnoc::noc
