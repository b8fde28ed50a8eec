// Network interface controller: packetization, injection and reassembly.
//
// Source side: per-flow packet queues; one flit per cycle onto the
// injection link; a packet needs a free VC at the injection segment's
// endpoint (which, under full bypass, is the *destination NIC* - the
// paper's "free VC queue might actually be tracking the VCs at an input
// port of a router multiple hops away").
//
// Sink side: per-VC reassembly; a packet is consumed on tail arrival and
// its receive-VC credit returns over the credit mesh.
//
// The NIC never calls into the network: inject() returns the flit it put
// on the wire and accept_flit() the receive VC a consumed tail freed, and
// the network carries both along its segment and credit tables.
//
// Hot-path layout: a NIC's state is sized by the flows it sources, never
// by the network's flow count. register_flow hands back the flow's local
// index; the network keeps the one FlowId -> local index table and passes
// the index to every per-flow call, which verifies it against the stored
// FlowId (O(1), no per-NIC FlowId table). Each local flow is a 12-byte
// {id, head, tail}: its FIFO of queued packets is a singly linked list
// threaded through the PacketPool payloads (`next`, plus the retransmission
// gate `not_before`), so an empty queue costs nothing and push_back,
// push_front (retransmission) and pop_front are O(1) with no allocation.
// The round-robin injector picks from a sorted list of the local flows with
// queued packets (cyclic lower_bound from the round-robin cursor), so a NIC
// with many registered flows but few busy ones does not probe every flow
// each cycle; it picks exactly what the seed's linear scan over every flow
// would (test_noc_router_unit checks it against such a scan under random
// offers, retransmissions and drops). Injected flits are
// 16-byte FlitRefs, and reassembly is a small linear-scanned vector bounded
// by the VC count. A running queued-packet counter makes idle() O(1) for
// the network's active-set scheduler and drain check.
//
// NICs are stored by value in the network's array. The first cache line
// holds everything accept_flit reads, so prefetch_arrival() - issued when
// a router is granted an output whose segment ends here - warms the whole
// sink side one cycle before the flit arrives.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/flit.hpp"
#include "noc/flow.hpp"
#include "noc/packet_pool.hpp"
#include "noc/shard.hpp"
#include "noc/stats.hpp"

namespace smartnoc::noc {

class alignas(64) Nic {
 public:
  Nic(NodeId node, const NocConfig& cfg, NetworkStats* stats, PacketPool* pool);

  NodeId node() const { return node_; }

  /// Registers a flow that originates here and returns its local index, the
  /// handle every per-flow call below takes (checked against the FlowId).
  /// Flows register in ascending FlowId order (gaps allowed).
  std::int32_t register_flow(const Flow& flow);

  /// Gives the source side `vcs` credits for its injection-segment endpoint.
  void init_source_credits(int vcs);

  /// Queue a packet for injection (infinite source queue; queueing time is
  /// measured separately from network latency). The slot's payload must be
  /// fully populated; the NIC inherits the slot's transmit reference and
  /// releases it when the tail leaves. `local` is the index register_flow
  /// returned for the payload's flow.
  void offer_packet(PacketSlot slot, std::int32_t local);

  /// Per-cycle injection phase: stream the active packet or start the next
  /// one (round-robin across this NIC's flows, one flit per cycle).
  /// Returns the flit put on the injection link, holding its own pool
  /// reference, or nothing. After the tail the transmit reference is
  /// already dropped: the returned flit's reference keeps the slot alive.
  std::optional<FlitRef> inject(Cycle now);

  /// Sink side: a flit that arrived at the end of cycle `now`. Consumes the
  /// flit's pool reference. A head flit prefetches its flow's stats row,
  /// which the tail writes. A tail completes its packet and returns the
  /// receive VC it freed, whose credit goes back to the feeder.
  std::optional<VcId> accept_flit(const FlitRef& flit, Cycle now);

  /// Starts loading the line accept_flit reads first (no state change).
  void prefetch_arrival() const { __builtin_prefetch(this, 1); }
  /// Starts loading the two lines inject() and idle() read every cycle.
  void prefetch_hot() const {
    __builtin_prefetch(this);
    __builtin_prefetch(&active_);
  }

  /// Source-side credit return (a packet left the endpoint buffers).
  void credit_arrived(VcId vc);

  /// O(1): no active transmission, no queued packet, nothing reassembling.
  bool idle() const {
    return !active_.has_value() && assembling_.empty() && queued_total_ == 0;
  }
  int queued_packets() const { return queued_total_; }
  int source_free_vcs() const { return free_vcs_.size(); }

  /// Sharded kernel: PacketPool refcounts and record_packet are process-wide
  /// and non-atomic, so during a parallel pass the NIC logs them into its
  /// shard's sink for serial replay in the tick epilogue. Null (the
  /// default) applies every op directly - the single-shard hot path.
  void set_shard_sink(ShardSink* sink) { sink_ = sink; }

  /// The network's active-set membership flag. It sits in the first line,
  /// which only the shard owning this NIC writes during a tick.
  bool in_active_set() const { return in_active_set_; }
  void set_in_active_set(bool on) { in_active_set_ = on; }

  // --- Fault engine (cold paths, between ticks) ------------------------------
  /// Re-queues a packet recovered from a fault at the *front* of its flow's
  /// queue for another transmission attempt, held back until `not_before`
  /// (exponential backoff). The caller has already refreshed the payload
  /// (attempts, route) and hands the slot's transmit reference back.
  void requeue_front(PacketSlot slot, std::int32_t local, Cycle not_before);

  /// Drops every queued packet of `flow` (a degraded, unreachable flow).
  /// `on_dropped` runs once per packet with its slot - the caller releases
  /// the transmit reference and records the drop. Returns the count.
  int drop_flow_queue(FlowId flow, std::int32_t local,
                      const std::function<void(PacketSlot)>& on_dropped);

  /// Rewrites the pool route of every queued packet of `flow` after an
  /// online reroute (queued payloads hold the route captured at offer time).
  void rewrite_queued_routes(FlowId flow, std::int32_t local, const SourceRoute& route);

  /// Cancels an affected active transmission (handing its transmit
  /// reference to the caller via `on_cancelled`) and erases affected
  /// reassemblies (their flits hold no pool references - the remaining
  /// flits upstream can never arrive). Queued packets are left alone.
  void purge_flows(const std::vector<std::uint8_t>& affected,
                   const std::function<void(PacketSlot)>& on_cancelled);

  /// Replaces the source free-VC queue with every VC in [0,vcs) whose
  /// `busy` bit is clear, ascending (the global credit recompute).
  void reset_source_credits(int vcs, const std::array<bool, 16>& busy);

  /// ORs into `busy` the receive VCs held by in-progress reassemblies
  /// (credit returns at tail; until then the VC is occupied).
  void mark_busy_receive_vcs(std::array<bool, 16>& busy) const;

  /// The endpoint VC of the active transmission, if one is streaming.
  std::optional<VcId> active_tx_vc() const {
    if (!active_.has_value()) return std::nullopt;
    return active_->vc;
  }

  /// Queued packets still serving their retransmission backoff at `now`
  /// (the watchdog must not mistake a backoff window for a deadlock).
  int retry_waiting(Cycle now) const;

 private:
  /// A flow sourced here and its FIFO of queued packets, linked oldest
  /// first through PacketPayload::next (both ends kInvalidSlot when empty).
  struct LocalFlow {
    FlowId id = kInvalidFlow;
    PacketSlot head = kInvalidSlot;
    PacketSlot tail = kInvalidSlot;
  };
  struct ActiveTx {
    PacketSlot slot = kInvalidSlot;
    int flits = 0;     ///< payload.flits, copied so streaming skips the pool
    VcId vc = kInvalidVc;
    int next_seq = 0;
  };
  struct Assembly {
    PacketSlot slot = kInvalidSlot;  ///< unique while any flit is unconsumed
    int flits = 0;
    Cycle head_arrival = 0;
    VcId vc = kInvalidVc;  ///< receive VC (busy until tail; fault recompute)
  };

  // The first cache line: the sink side (accept_flit).
  NodeId node_;
  int vcs_per_port_;
  NetworkStats* stats_;
  PacketPool* pool_;
  ShardSink* sink_ = nullptr;  ///< non-null only under the sharded protocol
  std::vector<Assembly> assembling_;   ///< in-progress packets (<= #VCs entries)
  bool in_active_set_ = false;

  // The second line: what inject() and idle() read every cycle.
  alignas(64) std::optional<ActiveTx> active_;
  int queued_total_ = 0;               ///< packets across all local queues
  VcQueue free_vcs_;
  std::size_t rr_next_ = 0;            ///< round-robin over local_flows_
  // Flow selection, read when a packet starts.
  std::vector<LocalFlow> local_flows_;  ///< flows sourced at this NIC
  std::vector<std::size_t> nonempty_;  ///< sorted local flows with queued packets

  /// The local flow at `local`, checked to be `flow` (`what` on mismatch:
  /// an unregistered flow or a packet at the wrong NIC).
  LocalFlow& local_flow(FlowId flow, std::int32_t local, const char* what);
};

}  // namespace smartnoc::noc
