#include "tools/noc_generator.hpp"

#include "smart/config_reg.hpp"

namespace smartnoc::tools {

GeneratedDesign generate_noc(const NocConfig& cfg) {
  cfg.validate();
  GeneratedDesign d;
  d.cfg = cfg;
  d.rtl = generate_rtl(cfg);
  const CellOutline cell;
  d.tx_block = place_vlr_block(cell, cfg.flit_bits);
  d.rx_block = place_vlr_block(cell, cfg.flit_bits);
  d.liberty = generate_liberty(cfg, circuit::SizingPreset::Relaxed2GHz);
  d.lef_tx = generate_lef(d.tx_block, "vlr_tx_" + std::to_string(cfg.flit_bits) + "b");
  d.lef_rx = generate_lef(d.rx_block, "vlr_rx_" + std::to_string(cfg.flit_bits) + "b");
  d.floorplan = floorplan_report(cfg);
  d.router_area = estimate_router_area(cfg);
  for (NodeId n = 0; n < cfg.dims().nodes(); ++n) {
    d.register_map.emplace_back(smart::RegisterFile::address_of(n), n);
  }
  return d;
}

}  // namespace smartnoc::tools
