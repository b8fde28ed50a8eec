// Preset computation: from a routed flow set to per-router presets.
//
// The paper presets each router "such that they either always receive a
// flit from one of the incoming links, or from a router buffer" (Sec. IV).
// Because the crossbar crosspoints are static and flits are not inspected
// on the bypass path, an input port can bypass only if the presets are
// unambiguous. A flow therefore *stops* (is buffered) at a router iff:
//
//   (a) output sharing: its output port there is used by flows entering
//       through a different input ("the output link is shared across
//       communication flows from different input ports");
//   (b) divergence: its input port carries flows that leave through
//       different outputs (a static crosspoint cannot split them);
//   (c) reach: the bypass segment would exceed HPC_max, the single-cycle
//       reach of the repeated link (8 hops at 2 GHz, Table I).
//
// Both (a) and (b) are pure functions of the routed flows; (c) adds stops
// by walking each flow. All flows sharing a link share its entire segment
// history, so per-input marks are consistent. Induction along the link's
// upstream router r: if the flows on the link enter r through a bypassed
// input, (a) and (b) make that input their only feeder, so the incoming
// link carries exactly the same flows (same history, one more hop); if
// they come from buffered inputs of r, every one of them restarts its
// segment at r. Either way the links crossed since the last latch point
// are a property of the link, not of the flow.
//
// The credit crossbar is the transpose of the forward bypass crosspoints,
// which is exactly how the paper's reverse credit mesh retraces forward
// routes.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "noc/flow.hpp"
#include "noc/preset.hpp"

namespace smartnoc::smart {

struct PresetBuild {
  noc::PresetTable table;
  /// Routers where each flow's flits are buffered, in path order
  /// (indexed by FlowId). Zero-load latency = 1 + 3 * stops.size().
  std::vector<std::vector<NodeId>> stops_per_flow;
  /// Total bypassed router crossings across all flows (diagnostics).
  int total_stops = 0;
};

/// Computes SMART presets for `flows` with single-cycle reach `hpc_max`.
/// With `enable_bypass` false, returns all-buffer presets and per-hop stops
/// (the baseline mesh), letting callers diff the two designs directly.
PresetBuild compute_presets(const NocConfig& cfg, const noc::FlowSet& flows, int hpc_max,
                            bool enable_bypass = true);

/// The single-cycle multi-hop reach for this configuration: the circuit
/// model's max hops per cycle at the network frequency, unless overridden.
int effective_hpc_max(const NocConfig& cfg);

}  // namespace smartnoc::smart
