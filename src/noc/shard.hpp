// Sharded parallel cycle kernel: the data structures and thread runtime that
// let one MeshNetwork tick across many cores.
//
// The mesh is spatially partitioned into column slices ("shards"); each shard
// owns its routers and NICs, its slice of the dirty active sets, and its own
// credit time wheel. A tick runs in two parallel passes separated by a
// barrier:
//
//   pass A  - each shard first links the packets offered to its NICs since
//             the last tick into their source queues and activates those
//             NICs, in offer order (the traffic generator files them
//             serially, in (due, flow) order). Then it runs the kernel
//             phases over its own components. A flit whose segment endpoint
//             lies in another shard is not applied directly: it is appended
//             to an outbox (a mailbox of 16 B FlitRefs) addressed to the
//             owner. Credits for a remote origin go to a remote-credit list.
//   barrier
//   pass B  - each shard drains the inboxes addressed to it (in source-shard
//             order, so the result is independent of thread timing) and
//             activates the receiving components.
//   barrier
//   epilogue - the coordinating thread serially folds per-shard activity
//             deltas into the global stats, replays the NICs' deferred
//             PacketPool refcount ops (adds before releases, so a slot never
//             transiently hits zero with flits outstanding) and packet
//             delivery records, and routes remote credits into their owners'
//             wheels (credits are due >= now+1, so epilogue placement is
//             timing-exact).
//
// Every component, its active-set flag included, is written during a tick
// by its owning shard only, so no cache line of a router or NIC moves
// between cores.
//
// The active-set kernel is order-free within a cycle (each input port
// receives at most one flit per cycle, each free-VC queue at most one credit,
// and every stats mutation is a commutative add), which is what makes this
// partition bit-identical to the single-threaded kernel at any shard count -
// pinned by the GoldenShards matrix in test_golden_determinism.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/packet_pool.hpp"
#include "noc/segment.hpp"
#include "noc/stats.hpp"

namespace smartnoc::noc {

/// A credit on the wire: delivered to `target`'s free-VC queue at `due`.
struct InFlightCredit {
  Cycle due;
  SegOrigin target;
  VcId vc;
};

/// Credit time wheel horizon: bucket b holds credits due at cycles
/// == b mod kCreditWheelSize. Credit latency is 1 or 2 cycles, comfortably
/// under the horizon; MeshNetwork::schedule_credit asserts it.
inline constexpr std::size_t kCreditWheelSize = 8;

/// Side effects a NIC defers during a sharded pass instead of applying
/// directly: PacketPool refcounts and delivered-packet stats are process-wide
/// (non-atomic on purpose - atomics would tax the single-shard hot path), so
/// under shards they are logged here and replayed serially by the
/// coordinating thread in the tick epilogue. A NIC with no sink attached
/// (the single-shard kernel) applies every op directly at zero extra cost.
struct ShardSink {
  struct Delivery {
    FlowId flow = kInvalidFlow;
    int flits = 0;
    Cycle created = 0;
    Cycle injected = 0;
    Cycle head_arrival = 0;
    Cycle tail_arrival = 0;
  };

  std::vector<PacketSlot> pool_add_refs;  ///< one per flit put on the wire
  std::vector<PacketSlot> pool_releases;  ///< consumed flits + departed tails
  std::vector<Delivery> deliveries;       ///< completed packets for record_packet

  void clear() {
    pool_add_refs.clear();
    pool_releases.clear();
    deliveries.clear();
  }
};

/// A flit crossing a shard boundary: the full segment traversal is resolved
/// sender-side (activity charged, hop_index advanced, arrival computed), so
/// the owner only has to apply the endpoint write. A SMART bypass chain
/// spanning several shards is still ONE event: presets are static within an
/// era, so the multi-hop path needs no per-shard arbitration exchange.
struct ShardFlitEvent {
  Endpoint ep;
  FlitRef flit;
  Cycle arrival = 0;
};

/// A packet offered between ticks to a NIC of this shard. The offer's
/// counters, id, pool slot and payload are filled serially; the owning
/// shard links it into the NIC's queue and activates the NIC at the top of
/// its next pass A.
struct ShardOffer {
  NodeId src = kInvalidNode;
  std::int32_t local = -1;  ///< the flow's index at its source NIC
  PacketSlot slot = kInvalidSlot;
};

/// A credit whose target origin lives in another shard; the epilogue pushes
/// it into the owner's wheel.
struct ShardRemoteCredit {
  InFlightCredit credit;
  int owner = 0;
};

/// Everything one shard owns or produces. Cache-line aligned so neighbouring
/// shards' hot fields never share a line.
struct alignas(64) ShardState {
  int id = 0;

  // Owned slice of the kernel state (see network.hpp for the invariants).
  std::vector<NodeId> active_routers;
  std::vector<NodeId> active_nics;
  std::array<std::vector<InFlightCredit>, kCreditWheelSize> wheel;
  std::size_t credits_in_flight = 0;
  std::vector<ShardOffer> offers;  ///< filled between ticks, enqueued in pass A

  // Per-tick outputs, consumed between the barrier and the next tick.
  ActivityCounters act;                              ///< merged + reset in the epilogue
  ShardSink sink;                                    ///< this shard's NICs log here
  std::vector<std::vector<ShardFlitEvent>> outbox;   ///< [dst shard]; dst drains+clears
  std::vector<ShardRemoteCredit> remote_credits;     ///< drained by the epilogue

  // Observability (smartnoc_shard_* counters + span lanes).
  std::uint64_t ticks = 0;
  std::uint64_t boundary_flits = 0;
  std::uint64_t span_chunk_start_us = 0;
  std::uint64_t span_chunk_ticks = 0;
};

/// Reusable sense-reversing spin barrier. The per-cycle rendezvous runs at
/// sub-microsecond granularity, so parties spin (with a yield fallback once a
/// partner is clearly descheduled) instead of sleeping on a futex - a blocking
/// barrier's wakeup latency would eat the per-shard work of mid-sized meshes.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties), pending_(parties) {}

  void arrive_and_wait() {
    const bool sense = sense_.load(std::memory_order_relaxed);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arriver: reset for the next phase and release everyone.
      pending_.store(parties_, std::memory_order_relaxed);
      sense_.store(!sense, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) == sense) {
      if (++spins >= kSpinLimit) {
        std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr int kSpinLimit = 1 << 14;

  const int parties_;
  std::atomic<int> pending_;
  std::atomic<bool> sense_{false};
};

/// The worker-thread harness for the parallel tick. The constructing thread
/// is participant 0 (it runs shard 0's passes itself); shards-1 workers are
/// spawned immediately and park in a spin-wait between ticks. run_tick()
/// executes pass A on every shard, a barrier, pass B, a barrier - the
/// epilogue is the caller's (serial) business. Barrier residency is timed
/// per shard and surfaced as the smartnoc_shard_barrier_wait metric.
class ShardRuntime {
 public:
  /// `pass_fn(shard, pass)` runs pass A (0) or pass B (1) for one shard.
  using PassFn = std::function<void(int shard, int pass)>;

  ShardRuntime(int shards, PassFn pass_fn);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// One tick's worth of parallel work (both passes, both barriers).
  void run_tick();

  double barrier_wait_seconds(int shard) const {
    return waits_[static_cast<std::size_t>(shard)].v.load(std::memory_order_relaxed);
  }

 private:
  // Single-writer (the owning thread), read cross-thread by telemetry after
  // the tick's final barrier - which does not order the post-barrier
  // accumulate, so the slot must be atomic. Relaxed is enough: it is a
  // monotonic stat, not a synchronization point.
  struct alignas(64) PaddedSeconds {
    std::atomic<double> v{0.0};
  };

  void member_tick(int shard);
  void timed_barrier(int shard);
  void worker_loop(int shard);

  const int shards_;
  PassFn pass_fn_;
  SpinBarrier barrier_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  std::vector<PaddedSeconds> waits_;
  std::vector<std::thread> threads_;
};

}  // namespace smartnoc::noc
