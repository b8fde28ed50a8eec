// Traffic generation.
//
// Task-graph traffic (the paper's evaluation): each flow injects packets as
// a Bernoulli process whose per-cycle probability meets the flow's
// bandwidth requirement ("modeling a uniform random injection rate to meet
// the specified bandwidth for each flow", Sec. VI).
//
// Synthetic patterns (supporting benches/tests): classic NoC workloads
// expressed as flow sets so that SMART presets apply to them unchanged.
// Patterns with one destination per source (transpose, bit-complement,
// neighbor) let SMART bypass aggressively; uniform-random (all-pairs flows)
// is SMART's worst case - every port is shared, everything stops, and the
// paper's observation "in the worst case, if all flows contend, SMART and
// Mesh will have the same network latency" becomes measurable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/flow.hpp"
#include "noc/network_iface.hpp"
#include "noc/routing.hpp"

namespace smartnoc::noc {

/// The Bernoulli process by geometric skip-ahead: one uniform per *packet*
/// draws the gap to the flow's next packet (inverse CDF of the geometric
/// distribution), and a calendar wheel of per-flow due cycles makes
/// generation O(packets): a cycle visits one bucket, which holds the flows
/// due then plus, on average, at most one flow in two due a whole wheel
/// span or more later. Statistically the same process as one uniform draw
/// per flow per cycle (the seed's loop, kept as an oracle in
/// test_traffic_gap), but a different realization at equal seeds: each
/// flow's stream (make_stream(seed, flow id)) is consumed per packet.
class TrafficEngine {
 public:
  TrafficEngine(const NocConfig& cfg, const FlowSet& flows, std::uint64_t seed);

  /// One cycle of generation, offering packets to the network at
  /// `net.now()`. Call once per tick (after it).
  void generate(Network& net);

  /// Disables generation (drain phase). Re-enabling re-draws the gap of
  /// any flow whose due cycle passed while disabled (a per-cycle process
  /// would simply resume, having drawn nothing).
  void set_enabled(bool e) { enabled_ = e; }

  std::uint64_t generated() const { return generated_; }

  /// Uniform variates consumed so far: one per packet, plus one per flow
  /// to seed the first gap. Tests pin the O(packets) claim on this counter.
  std::uint64_t rng_draws() const { return draws_; }

 private:
  struct Gen {
    FlowId id;
    double p;  // packets per cycle
    Xoshiro256 rng;
  };
  /// A flow's place on the calendar wheel, beside the divisor its draws
  /// use. Built at the first generate(): constructing an engine allocates
  /// one Gen per flow and nothing else.
  struct Slot {
    Cycle due;           ///< the cycle of the flow's next packet
    double log_q;        ///< log1p(-p), the inverse CDF's divisor
    std::uint32_t next;  ///< next flow in the same bucket (kNone ends)
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  Cycle draw_gap(std::uint32_t gi);             ///< geometric gap >= 1 (one uniform)
  void schedule(std::uint32_t gi, Cycle from);  ///< files the next due >= from
  /// Unlinks the flows of bucket `b` whose due cycle `take` accepts and
  /// appends their indices to `picked_`.
  template <typename Take>
  void unlink_bucket(std::size_t b, Take&& take);

  std::vector<Gen> gens_;
  /// The calendar wheel, built at the first generate(): bucket
  /// (due & wheel_mask_) heads an intrusive list through Slot::next. Every
  /// listed due cycle is >= next_cycle_, the first cycle not yet visited.
  std::vector<Slot> slots_;  ///< by gens_ index
  std::vector<std::uint32_t> heads_;
  std::size_t wheel_mask_ = 0;
  Cycle next_cycle_ = 0;
  std::vector<std::uint32_t> picked_;  ///< one visit's flows (gens_ indices)
  bool enabled_ = true;
  std::uint64_t generated_ = 0;
  std::uint64_t draws_ = 0;
};

/// Which synthetic pattern to build.
enum class SyntheticPattern : std::uint8_t {
  UniformRandom,  ///< all-pairs flows, equal rates (SMART worst case)
  Transpose,      ///< (x,y) -> (y,x)
  BitComplement,  ///< node i -> ~i
  Neighbor,       ///< (x,y) -> (x+1, y) with wraparound suppressed at edges
  Hotspot,        ///< everyone -> one hot node (plus background neighbor)
};

const char* synthetic_name(SyntheticPattern p);

/// Builds a flow set for a synthetic pattern at the given aggregate
/// injection rate (flits per node per cycle), with routes under `model`.
/// The bandwidth of each flow is derived so the per-node flit rate is met.
FlowSet make_synthetic_flows(const NocConfig& cfg, SyntheticPattern pattern,
                             double flits_per_node_cycle, TurnModel model);

/// MB/s that correspond to `packets_per_cycle` packets per cycle under cfg
/// (inverse of Flow::packets_per_cycle, incl. bandwidth_scale).
double mbps_for_packets_per_cycle(const NocConfig& cfg, double packets_per_cycle);

// --- Trace record / replay ---------------------------------------------------
//
// A packet trace decouples workload generation from simulation: record the
// Bernoulli process once, then replay it bit-identically against any design
// (the Fig. 10 methodology sends "the same traffic through the network" for
// all three designs). Traces persist in the binary SNTR capture format
// (telemetry/trace_file.hpp).

struct TraceEntry {
  Cycle cycle = 0;
  FlowId flow = kInvalidFlow;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Pre-computes exactly the packets TrafficEngine(cfg, flows, seed) would
/// offer during cycles [1, cycles] (same streams, same draw order),
/// assuming the engine's first generate() call happens at cycle 1 - which
/// is what the Session/run_simulation loop does.
std::vector<TraceEntry> record_bernoulli_trace(const NocConfig& cfg, const FlowSet& flows,
                                               std::uint64_t seed, Cycle cycles);

/// Drop-in replacement for TrafficEngine that replays a trace. Entries
/// must be sorted by cycle (record_bernoulli_trace output is).
class TraceReplayer {
 public:
  explicit TraceReplayer(std::vector<TraceEntry> trace);

  void generate(Network& net);
  void set_enabled(bool e) { enabled_ = e; }
  std::uint64_t generated() const { return generated_; }
  bool exhausted() const { return next_ >= trace_.size(); }

 private:
  std::vector<TraceEntry> trace_;
  std::size_t next_ = 0;
  bool enabled_ = true;
  std::uint64_t generated_ = 0;
};

}  // namespace smartnoc::noc
