// Measurement: per-packet latency accounting and the activity counters the
// power model consumes.
//
// Latency definitions (all in cycles, matching the paper's conventions):
//   network latency = head-flit arrival cycle - injection cycle + 1
//     (a full-bypass SMART packet injected and delivered in the same cycle
//      scores 1, the paper's "single-cycle" traversal; a baseline-mesh
//      1-hop packet scores 9 = 1 inject link + 3+1 per hop + 3 + 1 eject);
//   total latency   = tail arrival - creation + 1 (includes source queueing
//     and serialization; reported separately).
//
// Per-flow stats live in a flat vector indexed by FlowId (flow ids are
// dense, assigned by FlowSet), so record_packet on the per-packet hot path
// is an array index instead of a map walk. Flows that never delivered a
// packet appear as zero-initialized entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace smartnoc::noc {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t sum_network_latency = 0;
  std::uint64_t sum_total_latency = 0;
  std::uint64_t sum_queue_latency = 0;
  Cycle max_network_latency = 0;
  // Fault-engine degradation accounting (per flow).
  std::uint64_t dropped = 0;      ///< packets lost for good (retry budget spent)
  std::uint64_t retransmits = 0;  ///< packets re-queued at the source NIC

  double avg_network_latency() const {
    return packets ? static_cast<double>(sum_network_latency) / static_cast<double>(packets) : 0.0;
  }
  double avg_total_latency() const {
    return packets ? static_cast<double>(sum_total_latency) / static_cast<double>(packets) : 0.0;
  }
  double avg_queue_latency() const {
    return packets ? static_cast<double>(sum_queue_latency) / static_cast<double>(packets) : 0.0;
  }
};

/// Activity counters feeding the Fig. 10b power categories. Counted over
/// the measurement window only.
struct ActivityCounters {
  // Buffer category.
  std::uint64_t buffer_writes = 0;   ///< flits latched into input VCs
  std::uint64_t buffer_reads = 0;    ///< flits read for switch traversal
  // Allocator category.
  std::uint64_t alloc_grants = 0;    ///< switch/VC allocations (per packet)
  // Xbar (flit + credit) + pipeline register category.
  std::uint64_t xbar_flit_traversals = 0;    ///< per flit per crossbar crossed
  std::uint64_t xbar_credit_traversals = 0;  ///< per credit per credit-crossbar
  std::uint64_t pipeline_latches = 0;        ///< flits latched at segment ends
  // Link category.
  std::uint64_t link_flit_mm = 0;     ///< flit * mm of data wire traversed
  std::uint64_t link_credit_mm = 0;   ///< credit * mm of credit wire traversed
  // Clocking (split across categories by the power model).
  std::uint64_t clocked_inport_cycles = 0;   ///< ungated input-port * cycles
  std::uint64_t clocked_outport_cycles = 0;  ///< ungated output-port * cycles

  void reset() { *this = ActivityCounters{}; }

  void add(const ActivityCounters& o) {
    buffer_writes += o.buffer_writes;
    buffer_reads += o.buffer_reads;
    alloc_grants += o.alloc_grants;
    xbar_flit_traversals += o.xbar_flit_traversals;
    xbar_credit_traversals += o.xbar_credit_traversals;
    pipeline_latches += o.pipeline_latches;
    link_flit_mm += o.link_flit_mm;
    link_credit_mm += o.link_credit_mm;
    clocked_inport_cycles += o.clocked_inport_cycles;
    clocked_outport_cycles += o.clocked_outport_cycles;
  }
};

/// Field-wise a - b. Networks emitting per-tick activity deltas snapshot
/// their counters at tick start and diff at tick end; the counters only
/// ever grow within a tick, so each field difference is exact.
inline ActivityCounters activity_diff(const ActivityCounters& a, const ActivityCounters& b) {
  ActivityCounters d;
  d.buffer_writes = a.buffer_writes - b.buffer_writes;
  d.buffer_reads = a.buffer_reads - b.buffer_reads;
  d.alloc_grants = a.alloc_grants - b.alloc_grants;
  d.xbar_flit_traversals = a.xbar_flit_traversals - b.xbar_flit_traversals;
  d.xbar_credit_traversals = a.xbar_credit_traversals - b.xbar_credit_traversals;
  d.pipeline_latches = a.pipeline_latches - b.pipeline_latches;
  d.link_flit_mm = a.link_flit_mm - b.link_flit_mm;
  d.link_credit_mm = a.link_credit_mm - b.link_credit_mm;
  d.clocked_inport_cycles = a.clocked_inport_cycles - b.clocked_inport_cycles;
  d.clocked_outport_cycles = a.clocked_outport_cycles - b.clocked_outport_cycles;
  return d;
}

/// Degradation counters maintained by the runtime fault engine. Offered /
/// dropped / retransmitted obey packet-fate conservation: every packet a
/// workload offers is eventually delivered, dropped, or sitting in a retry
/// queue (pinned by tests together with PacketPool::live() == 0 at drain).
struct FaultCounters {
  std::uint64_t packets_offered = 0;        ///< offer_packet calls (incl. degraded flows)
  std::uint64_t packets_dropped = 0;        ///< lost for good (budget spent / flow failed)
  std::uint64_t packets_retransmitted = 0;  ///< re-queued with backoff after a fault
  std::uint64_t flits_purged = 0;           ///< in-flight flits invalidated by a kill
  std::uint64_t flows_rerouted = 0;         ///< routes recomputed online around faults
  std::uint64_t flows_failed = 0;           ///< destinations unreachable (degraded)
  std::uint64_t flows_revived = 0;          ///< degraded flows restored by a repair
  std::uint64_t chains_truncated = 0;       ///< SMART bypass chains cut to hop-by-hop
  std::uint64_t link_kills = 0;
  std::uint64_t link_repairs = 0;
  std::uint64_t router_stalls = 0;

  void reset() { *this = FaultCounters{}; }
};

class NetworkStats {
 public:
  /// Histogram bucket cap: latencies above this are clamped into the last
  /// bucket (keeps percentile queries O(1)-memory; 4096 cycles is far past
  /// anything a drained 4x4 run produces).
  static constexpr std::size_t kMaxLatencyBucket = 4096;

  /// Starts loading the row record_packet(flow, ...) updates (a no-op for
  /// a flow with no row yet).
  void prefetch_flow(FlowId flow) const {
    const auto idx = static_cast<std::size_t>(flow);
    if (idx < flows_.size()) __builtin_prefetch(&flows_[idx], 1);
  }

  void record_packet(FlowId flow, int flits, Cycle created, Cycle injected, Cycle head_arrival,
                     Cycle tail_arrival) {
    const auto idx = static_cast<std::size_t>(flow);
    if (idx >= flows_.size()) flows_.resize(idx + 1);
    FlowStats& fs = flows_[idx];
    fs.packets += 1;
    fs.flits += static_cast<std::uint64_t>(flits);
    const Cycle net = head_arrival - injected + 1;
    const Cycle tot = tail_arrival - created + 1;
    fs.sum_network_latency += net;
    fs.sum_total_latency += tot;
    fs.sum_queue_latency += injected - created;
    if (net > fs.max_network_latency) fs.max_network_latency = net;
    if (histogram_.empty()) histogram_.resize(kMaxLatencyBucket + 1, 0);
    histogram_[std::min<std::size_t>(static_cast<std::size_t>(net), kMaxLatencyBucket)] += 1;
    total_packets_ += 1;
  }

  /// Network-latency percentile in cycles (p in (0,100]); 0 if no packets.
  /// The running packet count makes this one bounded histogram walk (the
  /// total is no longer recomputed per query).
  Cycle latency_percentile(double p) const {
    if (total_packets_ == 0) return 0;
    const auto want =
        static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(total_packets_) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t lat = 0; lat < histogram_.size(); ++lat) {
      seen += histogram_[lat];
      if (seen >= want && histogram_[lat] > 0) return static_cast<Cycle>(lat);
    }
    return static_cast<Cycle>(histogram_.size() - 1);
  }

  /// Per-flow stats indexed by FlowId (sized to the highest flow that
  /// delivered a packet; untouched flows read as all-zero).
  const std::vector<FlowStats>& per_flow() const { return flows_; }

  std::uint64_t total_packets() const { return total_packets_; }

  /// Packet-weighted average network latency across all flows - the
  /// quantity plotted in Fig. 10a.
  double avg_network_latency() const {
    std::uint64_t n = 0, sum = 0;
    for (const FlowStats& fs : flows_) {
      n += fs.packets;
      sum += fs.sum_network_latency;
    }
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  }

  double avg_total_latency() const {
    std::uint64_t n = 0, sum = 0;
    for (const FlowStats& fs : flows_) {
      n += fs.packets;
      sum += fs.sum_total_latency;
    }
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  }

  /// A packet permanently lost (fault with no retry budget left, or a
  /// degraded flow's offer). Counted per flow and in the FaultCounters.
  void record_drop(FlowId flow) {
    const auto idx = static_cast<std::size_t>(flow);
    if (idx >= flows_.size()) flows_.resize(idx + 1);
    flows_[idx].dropped += 1;
    faults_.packets_dropped += 1;
  }

  /// A packet re-queued at its source NIC after a fault purged its flits.
  void record_retransmit(FlowId flow) {
    const auto idx = static_cast<std::size_t>(flow);
    if (idx >= flows_.size()) flows_.resize(idx + 1);
    flows_[idx].retransmits += 1;
    faults_.packets_retransmitted += 1;
  }

  ActivityCounters& activity() { return activity_; }
  const ActivityCounters& activity() const { return activity_; }

  FaultCounters& faults() { return faults_; }
  const FaultCounters& faults() const { return faults_; }

  Cycle measured_cycles = 0;  ///< length of the measurement window

  /// Clears everything (called at the end of warmup).
  void reset() {
    flows_.clear();
    histogram_.clear();
    total_packets_ = 0;
    activity_.reset();
    faults_.reset();
    measured_cycles = 0;
  }

 private:
  std::vector<FlowStats> flows_;
  std::vector<std::uint64_t> histogram_;
  std::uint64_t total_packets_ = 0;
  ActivityCounters activity_;
  FaultCounters faults_;
};

}  // namespace smartnoc::noc
