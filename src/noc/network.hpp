// The mesh network: routers + NICs + segments + the credit mesh, driven by
// a phase-ordered cycle loop. One implementation covers both designs under
// study:
//
//   * SMART:   presets from smart::PresetComputer, same-cycle multi-hop
//              segment delivery (Options::extra_link_cycle = false);
//   * Mesh:    PresetTable::all_buffer + one extra cycle per link, i.e. the
//              paper's baseline "3 cycles in router and 1 cycle in link".
//
// Per-cycle phase order: credit delivery -> Buffer Write -> Switch
// Traversal -> Switch Allocation -> NIC injection. A grant made in SA
// fires ST the *next* cycle, giving the 3-stage pipeline its +3-per-stop
// cost (pinned by test_noc_network_timing: 4n+5 cycles for an n-hop
// baseline-mesh packet, 1 + 3 * stops for SMART). The kernel walks the
// active routers twice per cycle: once for Buffer Write, and once for
// Switch Traversal, Switch Allocation and the router list's compaction,
// router by router. The fusion is exact: ST writes only other routers'
// staging, stamped with this cycle, which SA never reads and BW picks up
// next cycle. Buffer Write keeps its own pass, because a baseline-mesh
// input can already hold two staged flits when ST delivers into it.
//
// Cycle-ahead prefetch: run_phases turns what each stage learns into
// loads for the next one. A router's decoded heads (buffer_write's mask)
// warm its output ports, which SA reads, and the segment records and
// credit paths, which ST reads. Its grants (switch_allocation's mask)
// warm what the next cycle's ST writes: the endpoint router's masks and
// staging ring, or the endpoint NIC and the packet's payload. Every phase
// loop warms the first line of the component a few places ahead in its
// active list. Prefetches change no state, so results are bit-identical
// with or without them. Routers and NICs are stored by value, so these
// addresses need no pointer load. Under shards a pass skips endpoints
// another shard owns (that shard's thread is writing their lines).
//
// Scheduling: tick() is event-driven over *active sets*. Routers and NICs
// join their shard's dirty list when a flit or packet reaches them and
// leave once quiescent, so a cycle costs O(active components), not
// O(nodes) - the decisive case for the explorer's low-injection sweep
// points and the drain phase. Membership is a flag in the first cache line
// of each Router and Nic, which only the owning shard writes. In-flight
// credits sit in a bucketed time wheel indexed by due cycle (delivery pops
// one bucket per tick), and drained() reduces to four counter reads per
// shard (credits, both active lists, pending offers). Per-cycle results are
// bit-identical to the seed's full-scan loop, which lives on as a test
// oracle (tests/full_scan_kernel.hpp) that the golden determinism matrix
// runs against this kernel.
//
// Parallelism: with cfg.shard_threads > 1 the mesh is partitioned into
// column slices, one thread each, every shard owning its slice of the
// active sets and its own credit wheel; boundary flits and credits cross
// via mailboxes with a deterministic per-cycle barrier (see shard.hpp for
// the protocol and the bit-identity argument). shard_threads = 1 runs the
// plain single-threaded kernel unchanged.
#pragma once

#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "noc/fault_engine.hpp"
#include "noc/faults.hpp"
#include "noc/flow.hpp"
#include "noc/network_iface.hpp"
#include "noc/nic.hpp"
#include "noc/packet_pool.hpp"
#include "noc/preset.hpp"
#include "noc/router.hpp"
#include "noc/segment.hpp"
#include "noc/shard.hpp"
#include "noc/stats.hpp"
#include "noc/trace.hpp"

namespace smartnoc::obs {
class SpanTracer;
}  // namespace smartnoc::obs

namespace smartnoc::testing {
class FullScanKernel;
}  // namespace smartnoc::testing

namespace smartnoc::noc {

class MeshNetwork final : public Network {
 public:
  struct Options {
    bool extra_link_cycle = false;  ///< baseline mesh: +1 cycle per link
    int hpc_max = 8;                ///< single-cycle reach (from the circuit model)
  };

  MeshNetwork(const NocConfig& cfg, FlowSet flows, PresetTable presets, Options opt);

  // NICs hold stats and pool pointers, and routers a pool pointer, into
  // this object: it must stay pinned in memory (hand out unique_ptrs, never
  // move it).
  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;
  MeshNetwork(MeshNetwork&&) = delete;
  MeshNetwork& operator=(MeshNetwork&&) = delete;

  // --- Network interface ------------------------------------------------------
  void tick() override;
  Cycle now() const override { return now_; }
  void offer_packet(FlowId flow, Cycle created) override;
  bool drained() const override;
  NetworkStats& stats() override { return stats_; }
  const NetworkStats& stats() const { return stats_; }
  const NocConfig& config() const override { return cfg_; }
  const FlowSet& flows() const override { return flows_; }

  // --- Introspection (tests, benches, power) ----------------------------------
  Router& router(NodeId n) { return routers_.at(static_cast<std::size_t>(n)); }
  /// Enqueues the pending offers first, so the NIC shows every offered
  /// packet (see offer_packet).
  Nic& nic(NodeId n) {
    enqueue_all_offers();
    return nics_.at(static_cast<std::size_t>(n));
  }
  const SegmentTable& segments() const { return segments_; }
  const PresetTable& presets() const { return presets_; }
  /// The structure-of-arrays packet store: live() == in-flight packets
  /// (queued at NICs or with flits somewhere in the fabric); tests pin
  /// live() == 0 against drained().
  const PacketPool& packet_pool() const { return pool_; }

  /// Static analysis of a flow under the installed presets: the routers
  /// where its flits stop. Zero-load SMART network latency = 1 + 3 * stops
  /// (pinned by tests against simulation).
  struct FlowPathInfo {
    std::vector<NodeId> stops;
  };
  const FlowPathInfo& flow_info(FlowId id) const {
    return flow_info_.at(static_cast<std::size_t>(id));
  }

  /// Ports left clocked by the presets (feeds the power model's idle-clock
  /// term; SMART gates what the presets do not use, the baseline cannot).
  int clocked_input_ports() const { return clocked_in_total_; }
  int clocked_output_ports() const { return clocked_out_total_; }

  // --- Sharded parallel kernel -------------------------------------------------
  /// Number of shards the mesh is partitioned into: cfg.shard_threads
  /// clamped to the mesh width (column slices). 1 = single-threaded kernel.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// The shard owning node `n`'s router and NIC.
  int shard_of(NodeId n) const { return shard_of_[static_cast<std::size_t>(n)]; }

  /// Per-shard observability snapshot (feeds the smartnoc_shard_* metrics).
  struct ShardTelemetry {
    std::uint64_t ticks = 0;            ///< tick passes this shard executed
    std::uint64_t boundary_flits = 0;   ///< flits shipped across its boundary
    double barrier_wait_seconds = 0.0;  ///< wall-clock barrier residency
  };
  std::vector<ShardTelemetry> shard_telemetry() const;

  /// Benches/tests: run the full sharded protocol (sinks, mailboxes,
  /// epilogue) even with one shard, to measure the armed machinery against
  /// the plain kernel. Requires a pristine network (no ticks, no traffic).
  void force_sharded_path(bool on);

  /// Attaches a wall-clock span tracer: each shard thread records its tick
  /// batches on lane `base_lane + shard`. Pass nullptr to detach (flushes
  /// the partial batch). The tracer must outlive the network or be
  /// detached first, like the trace observer.
  void set_span_tracer(obs::SpanTracer* tracer, int base_lane = 0);

  /// Installs a trace observer (e.g. sim::VcdTracer). Pass nullptr to
  /// detach. The observer must outlive the network or be detached first.
  void set_observer(TraceObserver* obs) override {
    observer_ = obs;
    observer_wants_deltas_ = obs != nullptr && obs->wants_activity_deltas();
  }

  // --- Online fault injection (between ticks; no drain, no rebuild) -----------
  /// Enqueues the pending offers, then applies one primitive fault action
  /// to the live network: preset surgery, in-flight purge with full
  /// refcount accounting, online reroute of the affected flows, bounded
  /// retransmission, and a global credit recompute.
  /// Between ticks only, so any driver of the tick (the kernels here, the
  /// tests' full-scan oracle) sees the same surgery.
  void apply_fault_action(const FaultAction& action);

  /// Links currently failed (kills not yet repaired).
  const FaultSet& live_faults() const { return live_faults_; }

  /// True when the flow's destination became unreachable under the live
  /// faults: its packets are counted offered and dropped without entering
  /// the network until a repair revives it.
  bool flow_degraded(FlowId id) const {
    return !flow_degraded_.empty() && flow_degraded_[static_cast<std::size_t>(id)] != 0;
  }

  /// Full watchdog diagnosis: packet-pool census, occupied VCs, stuck
  /// routers, retry backlog, degraded flows and the live fault set.
  StallReport stall_report() const override;

 private:
  /// The tests' full-scan oracle drives this network's routers, NICs and
  /// credit wheel directly (tests/full_scan_kernel.hpp).
  friend class ::smartnoc::testing::FullScanKernel;

  // --- Carrying what routers and NICs emit ------------------------------------
  // Routers and NICs hold no pointer to the network: they return what they
  // emit, and the shard running the phase carries it. `s` is that shard
  // and `act` its activity target (the global counters on the
  // single-shard kernel, s.act under the sharded protocol). An endpoint or
  // credit origin another shard owns goes to a mailbox; with one shard
  // every node is local.

  /// Switch Traversal at router `n`, output by output in port order:
  /// carries each departure along its output segment and returns each
  /// tail's freed input VC to its feeder.
  void traverse(ShardState& s, ActivityCounters& act, NodeId n);
  /// Injection at NIC `n`: carries the flit it put on the wire along its
  /// injection segment.
  void inject(ShardState& s, ActivityCounters& act, NodeId n);
  /// Carries `flit` along `seg` (charging its traversal at `now`) into the
  /// endpoint router's staging or the endpoint NIC.
  void deliver(ShardState& s, ActivityCounters& act, const Segment& seg, FlitRef flit,
               Cycle now, bool from_router);
  /// Hands `flit` (arrived at the end of `arrival`) to NIC `n` and returns
  /// the credit of the receive VC a consumed tail freed.
  void accept_at_nic(ShardState& s, ActivityCounters& act, NodeId n, const FlitRef& flit,
                     Cycle arrival);
  /// Sends a credit for `vc` freed at `now` back along `path`.
  void schedule_credit(ShardState& s, ActivityCounters& act, const CreditPath& path, VcId vc,
                       Cycle now);
  void deliver_credit(const SegOrigin& target, VcId vc);
  void validate_and_index_flow(const Flow& flow);
  /// The flow's index among its source NIC's flows (Nic::register_flow).
  std::int32_t flow_local(FlowId id) const { return flow_local_[static_cast<std::size_t>(id)]; }

  void tick_active_set();
  /// The cycle body shared by the single-shard and sharded kernels: pops
  /// s's credit-wheel bucket, runs BW, then ST+SA with the router list's
  /// compaction, then injection with the NIC list's compaction over s's
  /// active components, charging `act`. Forced inline so each caller
  /// compiles its own copy against its own activity target: the
  /// single-shard hot path stays free of any shard machinery.
  [[gnu::always_inline]] inline void run_phases(ShardState& s, ActivityCounters& act);
  /// Prefetches what next cycle's ST out of router `n`'s `granted` outputs
  /// writes: the endpoint router's masks and staging ring, or the endpoint
  /// NIC and the packet's payload. Skips endpoints another shard owns.
  void prefetch_endpoints(const ShardState& s, NodeId n, unsigned granted) const;

  // --- Sharded kernel (shard.hpp documents the protocol) -----------------------
  /// Whether ticks run the sharded protocol (more than one shard, or one
  /// armed by force_sharded_path).
  bool sharded() const { return shards_.size() > 1 || force_sharded_; }
  /// Links s's pending offers into their NICs' queues and activates the
  /// NICs, in offer order (the top of pass A).
  void enqueue_offers(ShardState& s);
  /// enqueue_offers on every shard: between-tick readers of NIC queues and
  /// active sets call it first.
  void enqueue_all_offers();
  /// (Re)partitions the mesh into `count` column-slice shards and rewires
  /// the NIC sinks. Requires a quiescent network (constructor, bench
  /// arming).
  void configure_shards(int count);
  /// One sharded tick: pass A / barrier / pass B / barrier on every shard
  /// (worker threads when `parallel`, in shard order on the caller when an
  /// observer needs callbacks on one thread), then the serial epilogue.
  void tick_sharded(bool parallel);
  void shard_pass_a(ShardState& s);  ///< run_phases over s's slice
  void shard_pass_b(ShardState& s);  ///< drain inboxes addressed to s
  void shard_epilogue();             ///< serial: credits, refcounts, stats merge

  // --- Fault surgery (cold paths) ---------------------------------------------
  using LinkSet = std::set<std::pair<NodeId, int>>;  ///< directed (node, dir index)
  void apply_link_kill(NodeId node, Dir dir);
  void apply_link_repair(NodeId node, Dir dir);
  /// Converts the bypass chain starting at input (start, entry) to
  /// hop-by-hop presets, recording the un-bypassed links in `changed`.
  /// Returns true if any input actually flipped.
  bool truncate_chain(NodeId start, Dir entry, LinkSet& changed);
  /// Finds the chain covering input (node, entry) by walking the presets
  /// backward to its origin, then truncates the whole chain.
  void truncate_covering_chain(NodeId node, Dir entry, LinkSet& changed);
  /// Faults plus every link embedded in live bypass structure - the first
  /// reroute pass avoids disturbing other flows' chains.
  FaultSet structural_faults() const;
  /// Attempts an online reroute of `id` around the live faults; arms the
  /// new path (possibly truncating chains it crosses into `changed`).
  /// Returns false when the destination is unreachable.
  bool reroute_flow(FlowId id, LinkSet& changed);
  /// Makes every link of `path` usable for buffered hop-by-hop traffic.
  void arm_path(const RoutePath& path, LinkSet& changed);
  /// Purges in-flight flits of the affected flows (deterministic sweep),
  /// then drops or re-queues each recovered packet (bounded retransmission
  /// with exponential backoff).
  void purge_and_requeue(const std::vector<std::uint8_t>& affected);
  /// Rebuilds the segment table from the post-surgery presets, re-derives
  /// every origin's free-VC queue from actual endpoint occupancy, recounts
  /// clocked ports and rebuilds the active sets in node order.
  void rebuild_after_surgery();

  // Active-set membership. Each Router's and Nic's flag is the O(1)
  // membership test; the per-shard lists give deterministic
  // (insertion-ordered) iteration. Components are added when traffic
  // reaches them and compacted away once quiescent (a router right after
  // its ST and SA, a NIC after injection), so between ticks the lists hold
  // exactly the non-quiescent components - which is what makes drained() a
  // counter check. Activation is always shard-local: `s` owns `n`
  // (boundary deliveries go through a mailbox and are activated by the
  // owner in pass B).
  void activate_router(ShardState& s, NodeId n) {
    Router& r = routers_[static_cast<std::size_t>(n)];
    if (!r.in_active_set()) {
      r.set_in_active_set(true);
      s.active_routers.push_back(n);
    }
  }
  void activate_nic(ShardState& s, NodeId n) {
    Nic& nic = nics_[static_cast<std::size_t>(n)];
    if (!nic.in_active_set()) {
      nic.set_in_active_set(true);
      s.active_nics.push_back(n);
    }
  }
  ShardState& owner_of(NodeId n) {
    return shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(n)])];
  }

  static constexpr std::size_t kWheelSize = kCreditWheelSize;

  NocConfig cfg_;
  Options opt_;
  FlowSet flows_;
  PresetTable presets_;
  SegmentTable segments_;
  NetworkStats stats_;
  PacketPool pool_;  ///< cold payload store; routers/NICs hold pointers
  std::vector<Router> routers_;  ///< by NodeId; never reallocated after construction
  std::vector<Nic> nics_;        ///< by NodeId; never reallocated after construction
  /// The kernel state always lives in shards (size >= 1): shard 0 holds
  /// everything in single-shard mode, so both kernels run one algorithm.
  std::vector<ShardState> shards_;
  std::vector<int> shard_of_;  ///< NodeId -> owning shard (column slices)
  int configured_shards_ = 1;  ///< cfg.shard_threads clamped to the width
  bool force_sharded_ = false;
  std::vector<FlowPathInfo> flow_info_;
  FaultSet live_faults_;                     ///< links currently dead
  std::vector<std::uint8_t> flow_degraded_;  ///< flows with unreachable dst
  std::vector<std::int32_t> flow_local_;     ///< FlowId -> index at its source NIC
  std::uint32_t next_packet_id_ = 1;
  int clocked_in_total_ = 0;
  int clocked_out_total_ = 0;
  TraceObserver* observer_ = nullptr;
  bool observer_wants_deltas_ = false;  ///< cached obs->wants_activity_deltas()
  obs::SpanTracer* span_tracer_ = nullptr;
  int span_base_lane_ = 0;
  Cycle now_ = 0;
  /// Declared last so workers stop and join before any kernel state dies.
  std::unique_ptr<ShardRuntime> runtime_;
};

/// The paper's baseline: a state-of-the-art mesh NoC with no reconfiguration
/// [11], where each hop takes 3 cycles in the router and 1 cycle in the link.
std::unique_ptr<MeshNetwork> make_baseline_mesh(const NocConfig& cfg, FlowSet flows);

}  // namespace smartnoc::noc
