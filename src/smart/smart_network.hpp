// Factory for the SMART network: computes presets for the flow set, derives
// HPC_max from the circuit model and instantiates the unified mesh with
// same-cycle multi-hop segment delivery.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "noc/flow.hpp"
#include "noc/network.hpp"
#include "smart/config_reg.hpp"
#include "smart/preset_computer.hpp"

namespace smartnoc::smart {

/// A SMART network plus the preset diagnostics used by benches and tests.
struct SmartBuild {
  std::unique_ptr<noc::MeshNetwork> net;
  PresetBuild presets;
  int hpc_max = 0;
};

inline SmartBuild make_smart_network(const NocConfig& cfg, noc::FlowSet flows) {
  SmartBuild out;
  out.hpc_max = effective_hpc_max(cfg);
  out.presets = compute_presets(cfg, flows, out.hpc_max, /*enable_bypass=*/true);
  // Materialize the presets through the Section V register encoding: the
  // network always runs from a decoded register image.
  noc::PresetTable decoded = roundtrip_through_registers(out.presets.table, cfg.dims());
  noc::MeshNetwork::Options opt;
  opt.extra_link_cycle = false;   // crossbar + link share the ST cycle
  opt.hpc_max = out.hpc_max;
  out.net = std::make_unique<noc::MeshNetwork>(cfg, std::move(flows), std::move(decoded), opt);
  return out;
}

}  // namespace smartnoc::smart
