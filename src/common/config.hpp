// Network configuration (paper Table II plus simulation controls) with
// validation. A NocConfig fully determines the generated network: the same
// struct drives the simulator, the power model and the RTL/layout generator,
// mirroring the paper's Section V tool flow ("takes network configurations
// as input ... and generates the RTL description as well as the layout").
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/types.hpp"

namespace smartnoc {

/// Which network organization to instantiate for an experiment.
enum class Design : std::uint8_t {
  Mesh,       ///< baseline: 3-cycle router + 1-cycle link at every hop [11]
  Smart,      ///< SMART: preset bypass, single-cycle multi-hop traversal
  Dedicated,  ///< ideal: per-flow 1-cycle links, sink-side serialization only
};

inline const char* design_name(Design d) {
  switch (d) {
    case Design::Mesh: return "Mesh";
    case Design::Smart: return "SMART";
    case Design::Dedicated: return "Dedicated";
  }
  return "?";
}

/// Route-selection policy among minimal paths (all deadlock-free).
enum class RoutingPolicy : std::uint8_t {
  XY,         ///< dimension-ordered: unique minimal path
  WestFirst,  ///< west-first turn model: adaptivity for eastbound flows,
              ///< selector picks the minimal path with fewest link conflicts
};

struct NocConfig {
  // ---- Topology (Table II) -------------------------------------------------
  int width = 4;              ///< mesh columns
  int height = 4;             ///< mesh rows
  int flit_bits = 32;         ///< channel width
  int packet_bits = 256;      ///< fixed packet size
  int vcs_per_port = 2;       ///< virtual channels per input port
  int vc_depth_flits = 10;    ///< buffer depth per VC
  int header_bits = 20;       ///< head-flit header budget (route + vc + type)
  int credit_bits = 2;        ///< credit network width: log2(VCs) + 1 (valid)

  // ---- Physical / circuit --------------------------------------------------
  double freq_ghz = 2.0;      ///< network clock
  double hop_mm = 1.0;        ///< tile pitch: 1 hop = 1 mm (paper Sec. I fn 2)
  Swing link_swing = Swing::Low;  ///< all designs use SMART (low-swing) links
  int hpc_max_override = 0;   ///< 0 = derive HPC_max from the circuit model

  // ---- Microarchitecture ---------------------------------------------------
  int router_stages = 3;      ///< BW | SA | ST(+multi-hop LT); fixed by design
  bool clock_gate_unused_ports = true;  ///< SMART presets gate idle ports

  // ---- Simulation control --------------------------------------------------
  std::uint64_t seed = 1;
  Cycle warmup_cycles = 20'000;
  Cycle measure_cycles = 200'000;
  Cycle drain_timeout = 100'000;
  RoutingPolicy routing = RoutingPolicy::WestFirst;
  double bandwidth_scale = 1.0;  ///< multiplies all task-graph bandwidths
  /// Threads for the sharded parallel cycle kernel: the mesh is split into
  /// this many column slices, one thread each (clamped to the mesh width).
  /// Results are bit-identical at any value - like the explorer's sweep
  /// thread count, this is purely a wall-clock knob. 1 = single-threaded.
  int shard_threads = 1;

  // ---- Fault tolerance -----------------------------------------------------
  /// Liveness watchdog: a Session fails the phase with a StallReport when no
  /// forward progress happens over this many cycles. 0 disables the check.
  Cycle watchdog_window = 0;
  /// End-to-end recovery: packets lost to a fault are re-queued at their
  /// source NIC up to this many times before being dropped for good.
  int retry_limit = 3;
  /// Base retransmission delay; attempt k waits backoff << (k-1) cycles.
  Cycle retry_backoff_cycles = 64;

  // ---- Derived -------------------------------------------------------------
  int flits_per_packet() const { return packet_bits / flit_bits; }
  MeshDims dims() const { return MeshDims(width, height); }
  double cycle_ps() const { return 1000.0 / freq_ghz; }
  /// Longest minimal route in links, plus the ejection entry.
  int max_route_entries() const { return (width - 1) + (height - 1) + 1; }

  /// Throws ConfigError with a precise message if any field combination is
  /// inconsistent. Called by every network/tool constructor.
  void validate() const {
    MeshDims d(width, height);  // throws on bad dims
    (void)d;
    require(flit_bits > 0, "flit_bits must be positive");
    require(packet_bits > 0 && packet_bits % flit_bits == 0,
            "packet_bits must be a positive multiple of flit_bits");
    require(vcs_per_port >= 1 && vcs_per_port <= 16, "vcs_per_port must be in [1,16]");
    // Virtual cut-through requires a whole packet to fit in one VC.
    require(vc_depth_flits >= flits_per_packet(), [&] {
      return "virtual cut-through requires vc_depth_flits >= flits_per_packet (" +
             std::to_string(vc_depth_flits) + " < " + std::to_string(flits_per_packet()) + ")";
    });
    // Paper: credit width = log2(#VCs) + 1 valid bit.
    int vc_bits = 1;
    while ((1 << vc_bits) < vcs_per_port) ++vc_bits;
    require(credit_bits >= vc_bits + 1, [&] {
      return "credit_bits must be >= log2(vcs_per_port)+1 = " + std::to_string(vc_bits + 1);
    });
    // Header must hold the 2-bit-per-router source route plus VC id and
    // a 2-bit flit-type field (paper: 20-bit head header on 4x4).
    const int route_bits = 2 * max_route_entries();
    require(route_bits + vc_bits + 2 <= header_bits, [&] {
      return "header_bits=" + std::to_string(header_bits) + " too small: route needs " +
             std::to_string(route_bits) + " + vc " + std::to_string(vc_bits) + " + type 2";
    });
    require(freq_ghz > 0.0 && freq_ghz <= 10.0, "freq_ghz out of range (0,10]");
    require(hop_mm > 0.0, "hop_mm must be positive");
    require(std::isfinite(hop_mm), "hop_mm must be finite");
    require(hpc_max_override >= 0, "hpc_max_override must be >= 0");
    require(router_stages == 3, "this microarchitecture is the paper's 3-stage router");
    require(bandwidth_scale > 0.0, "bandwidth_scale must be positive");
    require(std::isfinite(bandwidth_scale), "bandwidth_scale must be finite");
    require(retry_limit >= 0, "retry_limit must be >= 0");
    require(retry_backoff_cycles > 0, "retry_backoff_cycles must be positive");
    require(shard_threads >= 1 && shard_threads <= 256, "shard_threads must be in [1,256]");
  }

  /// Grows the dependent fields to fit the primary ones: vc_depth_flits to
  /// hold a whole packet (virtual cut-through), credit_bits to
  /// log2(VCs)+1, header_bits to the source-route budget of the mesh.
  /// Sweep expansion calls this after setting width/height/flit_bits so
  /// every grid point is self-consistent without per-point hand tuning;
  /// fields already large enough are left untouched.
  void fit_derived() {
    if (flit_bits > 0 && packet_bits > 0 && packet_bits % flit_bits == 0) {
      if (vc_depth_flits < flits_per_packet()) vc_depth_flits = flits_per_packet();
    }
    int vc_bits = 1;
    while ((1 << vc_bits) < vcs_per_port) ++vc_bits;
    if (credit_bits < vc_bits + 1) credit_bits = vc_bits + 1;
    const int need_header = 2 * max_route_entries() + vc_bits + 2;
    if (header_bits < need_header) header_bits = need_header;
  }

  /// The paper's Table II configuration (the defaults), provided as a named
  /// constructor for use in benches and docs.
  static NocConfig paper_4x4() { return NocConfig{}; }

  friend bool operator==(const NocConfig&, const NocConfig&) = default;

 private:
  // Messages are built only when a check fails: a sweep validates every
  // point it serves, and a valid config must not pay for its error text.
  static void require(bool ok, const char* msg) {
    if (!ok) throw ConfigError(msg);
  }
  template <std::invocable Msg>
  static void require(bool ok, Msg&& msg) {
    if (!ok) throw ConfigError(msg());
  }
};

}  // namespace smartnoc
