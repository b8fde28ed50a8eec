// Structure-of-arrays flit storage: the per-network PacketPool owns each
// in-flight packet's *cold* payload (source route, flow id, endpoints,
// timestamps) exactly once, while everything that moves per cycle - VC
// rings, staging slots, segments - carries only a small FlitRef
// (noc/flit.hpp), and the NIC source queues are linked lists threaded
// through the payloads' `next` fields. BW/SA/ST therefore touch ~16 B per
// flit instead of the ~56 B the old AoS Flit cost, which is what keeps the
// inner tick loop's working set inside L1 under load.
//
// Lifecycle: alloc() hands out a slot with one reference (the queued /
// transmitting packet itself); every flit put in flight takes one more
// (add_ref), and every consumed flit (plus the transmit reference when the
// tail leaves the NIC) releases one. A slot whose count reaches zero is
// recycled through a free list - steady-state simulation performs no
// allocation, and pool live() == queued packets + packets with flits still
// in flight, which is exactly the invariant the drain check lets tests pin
// (live() == 0 on a drained network).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "noc/route.hpp"

namespace smartnoc::noc {

/// Index of a packet's payload in its network's PacketPool.
using PacketSlot = std::uint32_t;
inline constexpr PacketSlot kInvalidSlot = 0xFFFFFFFFu;

/// The cold per-packet payload: everything the arbiters never read.
struct PacketPayload {
  FlowId flow = kInvalidFlow;
  std::uint32_t id = 0;        ///< packet id (unique per network)
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int flits = 0;               ///< serialization length in flits
  SourceRoute route;           ///< 2-bit-per-router source route (Sec. IV)
  Cycle created = 0;           ///< packet creation (traffic engine)
  Cycle injected = 0;          ///< head flit placed on the injection link
  // Source-queue state, owned by the NIC while the packet waits to inject:
  // the per-flow FIFO is a singly linked list threaded through the pool.
  Cycle not_before = 0;        ///< retransmission backoff gate (0 = immediate)
  PacketSlot next = kInvalidSlot;  ///< next packet in its flow's source queue
  std::uint8_t attempts = 0;   ///< transmissions so far (fault retries)
};

class PacketPool {
 public:
  using RefCount = std::uint16_t;
  static constexpr RefCount kMaxRefs = 0xFFFF;

  /// Claims a slot (recycled if available) holding one reference - the
  /// queued/transmitting packet's own. The payload is *stale* until the
  /// caller fills it.
  PacketSlot alloc() {
    PacketSlot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<PacketSlot>(slots_.size());
      SMARTNOC_CHECK(s != kInvalidSlot, "packet pool exhausted the slot space");
      slots_.emplace_back();
      refs_.push_back(0);
    }
    refs_[s] = 1;
    live_ += 1;
    return s;
  }

  PacketPayload& at(PacketSlot s) {
    SMARTNOC_CHECK(s < slots_.size() && refs_[s] > 0, "dangling packet slot");
    return slots_[s];
  }
  const PacketPayload& at(PacketSlot s) const {
    SMARTNOC_CHECK(s < slots_.size() && refs_[s] > 0, "dangling packet slot");
    return slots_[s];
  }

  /// Starts loading slot `s`'s payload and refcount (no-op when out of range).
  void prefetch(PacketSlot s) const {
    if (s >= slots_.size()) return;
    __builtin_prefetch(&slots_[s]);
    __builtin_prefetch(&refs_[s]);
  }

  /// One more flit of this packet is in flight.
  void add_ref(PacketSlot s) {
    SMARTNOC_CHECK(s < refs_.size() && refs_[s] > 0, "add_ref on a dead slot");
    SMARTNOC_CHECK(refs_[s] < kMaxRefs, "packet refcount exhausted");
    refs_[s] += 1;
  }

  /// A reference dropped (flit consumed, or the transmit reference when the
  /// tail leaves the source). The slot is recycled at zero.
  void release(PacketSlot s) {
    SMARTNOC_CHECK(s < refs_.size() && refs_[s] > 0, "release on a dead slot");
    refs_[s] -= 1;
    if (refs_[s] == 0) {
      free_.push_back(s);
      live_ -= 1;
    }
  }

  RefCount refs(PacketSlot s) const {
    SMARTNOC_CHECK(s < refs_.size(), "slot out of range");
    return refs_[s];
  }

  /// Slots currently holding a live packet (queued or with flits in
  /// flight). Zero on a drained network - pinned by tests.
  std::size_t live() const { return live_; }
  /// Slots ever materialized (high-water mark; recycling keeps this at the
  /// peak number of simultaneously live packets).
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<PacketPayload> slots_;
  std::vector<RefCount> refs_;
  std::vector<PacketSlot> free_;
  std::size_t live_ = 0;
};

}  // namespace smartnoc::noc
