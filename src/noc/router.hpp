// The SMART router (paper Fig. 6): a 3-stage virtual-cut-through router
//
//      stage 1: Buffer Write        (BW)  - latch staged flits, decode route
//      stage 2: Switch Allocation   (SA)  - per-packet, round-robin outputs
//      stage 3: SMART Crossbar+Link (ST)  - traverse crossbar and the whole
//                                           bypass segment in one cycle
//
// A flit latched at the end of cycle t is buffer-written in t+1, allocated
// in t+2 and traverses in t+3: each stop costs exactly +3 cycles, matching
// the paper's Fig. 7 annotations. The baseline mesh [11] is the same router
// with every input preset to Buffer and one extra cycle per link
// (configured at the network level), i.e. 3 cycles router + 1 cycle link.
//
// Bypass traffic never enters this class: the network's segment table
// carries bypassed flits across this router's crossbar combinationally.
//
// Each phase costs what its events cost. Occupancy masks, updated at every
// push and pop, index the port state: `staged` (inputs with a staged
// flit) drives BW, `holds` (outputs with a live switch hold) drives ST,
// and SA builds its per-output requests from `pending & ~locked` - the
// (input, VC) pairs whose head is buffered but not yet granted, minus the
// inputs already streaming a packet - reading a VC only for a set bit and
// returning at once when nothing is pending. has_traffic() is a mask test,
// which the network's active-set scheduler and drain detection lean on
// every cycle. The masks are derived state: rebuild_masks() re-derives
// them from the ports after fault surgery and masks_consistent() checks
// them (pinned after every tick by test_router_masks).
//
// All VC headers and flit slots of a router live in one VcBlock, laid out
// input-major so the (input, VC) bit index of the masks is also the VC's
// index in the block. Staged flits sit in a two-slot ring per port and
// free-VC queues are fixed-capacity rings: the phases never allocate.
//
// Flits move as 16-byte FlitRefs (structure-of-arrays split): BW, SA and
// ST never touch the cold payload; the only pool access is the head-flit
// route decode at Buffer Write, resolved through the network's PacketPool.
//
// Cycle-ahead prefetch: each stage knows one simulated cycle early which
// lines the next stage reads. accept_flit warms the VC lines a head
// flit's Buffer Write fills next cycle; buffer_write and
// switch_allocation return the ports they decoded and granted, from which
// the network warms the output port, segment, credit path and endpoint
// lines (prefetch_arrival) that SA and ST touch. Routers are stored by
// value in one array, so the hot first line - masks, VC block, id - is at
// a fixed address the network can prefetch a few routers ahead of each
// phase.
#pragma once

#include <array>
#include <functional>
#include <optional>

#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/flit.hpp"
#include "noc/packet_pool.hpp"
#include "noc/preset.hpp"
#include "noc/stats.hpp"

namespace smartnoc::noc {

class alignas(64) Router {
 public:
  Router(NodeId id, const NocConfig& cfg, const PacketPool* pool);

  NodeId id() const { return id_; }

  // --- Per-cycle pipeline phases, called by the network in this order ------
  /// Ports of the head flits Buffer Write decoded this cycle (bit
  /// dir_index): the inputs they arrived on and the outputs they request.
  struct Decoded {
    unsigned ins = 0;
    unsigned outs = 0;
  };
  Decoded buffer_write(Cycle now, ActivityCounters& act);
  /// What Switch Traversal sent on one output: the flit, with its
  /// endpoint VC stamped. A tail (is_tail(flit.type)) freed input VC
  /// (in, in_vc), whose credit goes back to the feeder.
  struct Departure {
    FlitRef flit;
    Dir in = Dir::Core;
    VcId in_vc = kInvalidVc;
  };
  /// Switch Traversal on output `o`, one of holds(): returns the next flit
  /// of the packet holding `o`, or nothing in a cut-through gap or for a
  /// flit buffer-written this very cycle. The network visits holds() in
  /// port order and carries each departure along o's segment before it
  /// visits the next output. Inline, so the departure stays in registers.
  std::optional<Departure> switch_traversal(Dir o, Cycle now, ActivityCounters& act) {
    const auto oi = static_cast<std::size_t>(dir_index(o));
    OutputPort& op = outputs_[oi];
    const Hold h = *op.hold;
    VcBuffer& vc = vcs_[vc_index(h.in, h.in_vc)];
    if (vc.empty()) return std::nullopt;                     // cut-through gap: wait
    if (vc.front().buffered_at >= now) return std::nullopt;  // written this very cycle
    Departure d{vc.pop(), h.in, h.in_vc};
    d.flit.vc = h.out_vc;  // VC at the segment endpoint, allocated at SA
    masks_.buffered -= 1;
    act.buffer_reads += 1;
    if (is_tail(d.flit.type)) {
      // Virtual cut-through: buffer and switch are released by the tail.
      vc.clear_request();
      op.hold.reset();
      masks_.holds &= ~(1u << oi);
      masks_.locked &= ~(1u << dir_index(h.in));
    }
    return d;
  }
  /// Returns the outputs granted this cycle (bit dir_index).
  unsigned switch_allocation(Cycle now, ActivityCounters& act);
  /// Whether a phase has anything to visit: the network skips the call
  /// (and its prologue) for an active router with an empty mask.
  bool has_staged() const { return masks_.staged != 0; }
  /// Outputs holding the switch for a packet (bit dir_index).
  unsigned holds() const { return masks_.holds; }
  bool has_pending() const { return !masks_.pending.none(); }

  // --- Prefetch hooks (no state changes) --------------------------------------
  /// Starts loading the first line every phase reads (masks, VC block, id).
  void prefetch_hot() const { __builtin_prefetch(this); }
  /// Starts loading what accept_flit on input `in` writes: the masks and
  /// that input's staging ring.
  void prefetch_arrival(Dir in_dir) const {
    __builtin_prefetch(this, 1);
    prefetch_for_write(&in(in_dir));
  }
  /// Starts loading output `o`'s port state, which switch allocation reads
  /// and writes next cycle after a head decoded to `o`.
  void prefetch_output(Dir o) const { prefetch_for_write(&out(o)); }
  /// The packet a live switch hold on `o` streams (kInvalidSlot if none).
  PacketSlot held_packet(Dir o) const {
    const OutputPort& op = out(o);
    if (!op.hold.has_value()) return kInvalidSlot;
    return vcs_[vc_index(op.hold->in, op.hold->in_vc)].owner();
  }

  // --- Arrivals and credits, applied by the network ---------------------------
  /// Latch an arriving flit (end of `arrival` cycle) into the staging
  /// register of input port `in`; BW picks it up the following cycle.
  void accept_flit(Dir in, FlitRef flit, Cycle arrival);

  /// A credit returned to output port `out`'s free-VC queue.
  void credit_arrived(Dir out, VcId vc);

  /// Marks output `out` as switch-allocatable with `vcs` downstream VCs
  /// (called once at network construction, per FromRouter output).
  void enable_output(Dir out, int vcs);

  // --- Introspection ---------------------------------------------------------
  /// O(1): any staged flit, buffered flit or live switch hold.
  bool has_traffic() const { return (masks_.staged | masks_.holds) != 0 || masks_.buffered != 0; }
  int free_vcs(Dir o) const { return out(o).free_vcs.size(); }
  int buffered_flits() const { return masks_.buffered; }

  // --- Fault engine (cold paths, between ticks) ------------------------------
  /// Freezes switch allocation through cycle `until` (a RouterStall fault).
  /// BW and ST keep running, so granted streams finish and staging drains -
  /// traffic backs up behind the router instead of overflowing it.
  void stall_until(Cycle until) { stall_until_ = until; }
  Cycle stalled_until() const { return stall_until_; }

  /// Flips an output's switch-allocatability without touching its free-VC
  /// queue (the fault engine recomputes credits globally after surgery).
  /// Unlike enable_output, idempotent - made for repeated preset surgery.
  void set_output_enabled(Dir o, bool on) { out(o).enabled = on; }
  bool output_enabled(Dir o) const { return out(o).enabled; }

  /// Replaces output `o`'s free-VC queue with every VC in [0,vcs) whose
  /// `busy` bit is clear, ascending (the global credit recompute).
  void reset_output_credits(Dir o, int vcs, const std::array<bool, 16>& busy);

  /// ORs into `busy` the VCs of input `in_dir` occupied at this endpoint:
  /// VC contents, open packet requests, and staged flits still carrying
  /// their endpoint VC id.
  void mark_busy_input_vcs(Dir in_dir, std::array<bool, 16>& busy) const;

  /// The downstream VC a live switch hold on `o` is streaming into.
  std::optional<VcId> hold_out_vc(Dir o) const {
    const OutputPort& op = out(o);
    if (!op.hold.has_value()) return std::nullopt;
    return op.hold->out_vc;
  }

  /// Removes every staged flit, buffered flit and switch hold belonging to
  /// an affected flow (affected[flow] != 0), releasing VC requests and
  /// input locks. `on_removed` runs once per removed flit (the network
  /// drops the pool reference and counts). Deterministic kAllDirs order.
  /// Returns the number of flits removed.
  int purge_flows(const std::vector<std::uint8_t>& affected,
                  const std::function<void(const FlitRef&)>& on_removed);

  /// Re-derives the occupancy masks and the buffered-flit count from the
  /// port state (after fault surgery edits the ports directly).
  void rebuild_masks() { masks_ = derive_masks(); }
  /// True when every mask and the buffered-flit count match what
  /// rebuild_masks() would derive from the port state.
  bool masks_consistent() const { return derive_masks() == masks_; }

  /// Input VCs currently holding at least one flit (StallReport).
  int occupied_vcs() const;

  // --- Scheduling ------------------------------------------------------------
  /// The network's active-set membership flag. It sits in the first line,
  /// which only the shard owning this router writes during a tick.
  bool in_active_set() const { return in_active_set_; }
  void set_in_active_set(bool on) { in_active_set_ = on; }

 private:
  struct StagedFlit {
    FlitRef flit;
    Cycle arrival;
  };
  struct InputPort {
    // Two-slot staging ring: a port's feeder delivers at most one flit per
    // cycle with a fixed wire delay, so arrivals are FIFO and at most two
    // flits coexist (one on the wire, one awaiting BW).
    std::array<StagedFlit, 2> staging;
    int staging_head = 0;
    int staging_count = 0;
  };
  struct Hold {  ///< per-packet switch hold (grant until tail)
    Dir in = Dir::Core;
    VcId in_vc = kInvalidVc;
    VcId out_vc = kInvalidVc;
  };
  struct OutputPort {
    bool enabled = false;
    VcQueue free_vcs;
    std::optional<Hold> hold;
    RoundRobinArbiter arb;
  };
  /// Occupancy masks over the port state, maintained at every push/pop.
  /// Bit d of the port masks is dir_index(d); bit vc_index(in, v) of
  /// `pending` is that input VC.
  struct Masks {
    ArbMask pending;       ///< buffered heads not yet granted
    unsigned staged = 0;   ///< inputs with a staged flit
    unsigned holds = 0;    ///< outputs with a live switch hold
    unsigned locked = 0;   ///< inputs streaming a granted packet
    int buffered = 0;      ///< flits in all input VCs

    friend bool operator==(const Masks&, const Masks&) = default;
  };

  InputPort& in(Dir d) { return inputs_[static_cast<std::size_t>(dir_index(d))]; }
  OutputPort& out(Dir d) { return outputs_[static_cast<std::size_t>(dir_index(d))]; }
  const InputPort& in(Dir d) const { return inputs_[static_cast<std::size_t>(dir_index(d))]; }
  const OutputPort& out(Dir d) const { return outputs_[static_cast<std::size_t>(dir_index(d))]; }
  /// Prefetches both ends of *p for writing (a port record may straddle
  /// two lines).
  template <typename T>
  static void prefetch_for_write(const T* p) {
    __builtin_prefetch(p, 1);
    __builtin_prefetch(reinterpret_cast<const char*>(p + 1) - 1, 1);
  }
  /// Mask bit / block index of (input, vc).
  int vc_index(Dir in_dir, VcId v) const { return dir_index(in_dir) * vcs_per_port_ + v; }
  Masks derive_masks() const;

  // The first cache line holds what every phase and accept_flit read:
  // the masks, the VC block, the VC index stride and the active-set flag.
  Masks masks_;
  VcBlock vcs_;  ///< every input VC, input-major (index vc_index)
  NodeId id_;
  int vcs_per_port_;
  bool in_active_set_ = false;
  Cycle stall_until_ = 0;  ///< switch allocation frozen through this cycle
  const PacketPool* pool_;  ///< route decode at BW (the one payload read)
  std::array<InputPort, kNumDirs> inputs_;
  std::array<OutputPort, kNumDirs> outputs_;
};

}  // namespace smartnoc::noc
