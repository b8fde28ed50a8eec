// The Section V tool-flow entry point:
//
//   "we present a tool to build SMART NoCs. The tool takes network
//    configurations as input (e.g., the dimension of the mesh, flit width,
//    number of VCs and buffers), and generates the RTL description as well
//    as the layout of the SMART NoC integrated with the proposed link."
//
// GeneratedDesign bundles everything the flow produces: the RTL files, the
// VLR Tx/Rx block placements with their .lib/.lef views, the floorplan
// report and the memory map of the reconfiguration registers.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "tools/physical_gen.hpp"
#include "tools/verilog_gen.hpp"
#include "tools/vlr_placer.hpp"

namespace smartnoc::tools {

struct GeneratedDesign {
  NocConfig cfg;
  RtlBundle rtl;
  VlrBlock tx_block;
  VlrBlock rx_block;
  std::string liberty;
  std::string lef_tx;
  std::string lef_rx;
  std::string floorplan;
  RouterArea router_area;
  std::vector<std::pair<std::uint64_t, NodeId>> register_map;  ///< MMIO addr -> router
};

GeneratedDesign generate_noc(const NocConfig& cfg);

}  // namespace smartnoc::tools
