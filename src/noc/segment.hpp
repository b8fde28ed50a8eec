// Bypass segments: the single-cycle multi-hop paths implied by the presets.
//
// A segment starts at a flit source (a NIC's injection port or a stop
// router's output port) and ends at the next point where flits are latched
// (a stop router's input buffer or the destination NIC). Everything in
// between is preset bypass: the flit crosses those routers' crossbars and
// links combinationally within one cycle, which is exactly the paper's
// "Single-cycle Multi-hop Asynchronous Repeated Traversal".
//
// Segments are *derived* from a PresetTable by walking the preset
// crosspoints; the walk also validates the presets (no dangling bypass, no
// loops, HPC_max respected) and builds the reverse credit segments from the
// credit crossbar, asserting they mirror the forward ones.
//
// The table is split hot/cold. The hot side is one dense Segment record
// per (router, output) and per injection port, and one CreditPath record
// per latch point: what the cycle kernel reads per flit and per credit,
// indexed without bounds checks, with an `armed` flag for unused ports.
// The directed links each segment crosses live on the cold side
// (links(), and bypass_routers() derived from them), read only by trace
// observers, the telemetry probe and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/preset.hpp"

namespace smartnoc::noc {

/// Where a forward segment delivers flits.
struct Endpoint {
  bool is_nic = false;
  NodeId node = kInvalidNode;
  Dir in = Dir::Core;  ///< input port at the stop router (unused for NICs)

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Where a segment originates (used to wire the reverse credit path).
struct SegOrigin {
  bool is_nic = false;       ///< true: a NIC's injection port
  NodeId node = kInvalidNode;
  Dir out = Dir::Core;       ///< output port at the origin router

  friend bool operator==(const SegOrigin&, const SegOrigin&) = default;
};

/// A directed mesh link: (sender node, out direction).
using SegLink = std::pair<NodeId, Dir>;

/// The hot part of a segment: everything the kernel reads per flit.
struct Segment {
  SegOrigin origin;
  Endpoint ep;
  int mm = 0;          ///< router-to-router links traversed (1 hop = 1 mm)
  int bypassed = 0;    ///< routers crossed without stopping
  std::uint32_t first_link = 0;  ///< where links() starts in the cold link table
  bool armed = false;  ///< the port carries flits (injection: always)

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// The reverse credit path serving one latch point (a router input or a
/// NIC's receive buffers): one record read per returned credit.
struct CreditPath {
  SegOrigin origin;    ///< the feeder whose free-VC queue the credit refills
  int mm = 0;          ///< credit wire length (credit-network energy)
  int xbar_hops = 0;   ///< bypassed credit-crossbar crossings on the way
  bool armed = false;  ///< the latch point has a feeder
};

/// All segments of a configured network.
class SegmentTable {
 public:
  SegmentTable(const MeshDims& dims, const NocConfig& cfg, const PresetTable& presets,
               int hpc_max);

  const MeshDims& dims() const { return dims_; }
  int hpc_max() const { return hpc_max_; }

  /// Segment carrying flits injected by NIC n (always armed).
  const Segment& injection(NodeId n) const { return segs_[slot(n, kInjection)]; }

  /// Segment leaving router n through output port d (armed if the port is
  /// preset FromRouter).
  const Segment& output(NodeId n, Dir d) const { return segs_[slot(n, dir_index(d))]; }

  /// Reverse credit path for the feeder of router n's input port d.
  const CreditPath& credit_router_input(NodeId n, Dir d) const {
    return credits_[slot(n, dir_index(d))];
  }
  /// Reverse credit path for NIC n's receive buffers (armed when some
  /// segment terminates at that NIC).
  const CreditPath& credit_nic(NodeId n) const { return credits_[slot(n, kInjection)]; }

  // --- Cold side (observers, probe, tests) ------------------------------------
  /// Padding after the last link: at least this many entries past the start
  /// of any links() span are readable (padding reads as link (0, East)), so
  /// a hot observer can count short segments without a length branch.
  static constexpr std::size_t kLinkPad = 2;
  /// The directed links `seg` crosses, in order - one per mm. `seg` must be
  /// a record of this table (from injection() or output()).
  std::span<const SegLink> links(const Segment& seg) const {
    return {link_pool_.data() + seg.first_link, static_cast<std::size_t>(seg.mm)};
  }
  /// The routers `seg` crosses without stopping, in order (per-router
  /// crossbar energy): the senders of its links past the origin, plus the
  /// destination tile's router when the segment bypasses into its NIC.
  std::vector<NodeId> bypass_routers(const Segment& seg) const;

 private:
  /// Per-node record slots: outputs by dir_index, then the injection port
  /// (for credits: the NIC receive buffers).
  static constexpr int kSlots = kNumDirs + 1;
  static constexpr int kInjection = kNumDirs;
  static std::size_t slot(NodeId n, int k) {
    return static_cast<std::size_t>(n) * kSlots + static_cast<std::size_t>(k);
  }

  /// Walks the bypass presets from (first_router, entry_port), appending
  /// the links crossed to `links`.
  Segment walk_forward(SegOrigin origin, NodeId first_router, Dir entry_port,
                       const PresetTable& presets, std::vector<SegLink>& links) const;
  void build_credit_side(const PresetTable& presets);

  MeshDims dims_;
  int hpc_max_;
  std::vector<Segment> segs_;               // [slot(node, k)]
  std::vector<CreditPath> credits_;         // [slot(node, k)]
  std::vector<SegLink> link_pool_;          // every segment's links, then kLinkPad
};

}  // namespace smartnoc::noc
