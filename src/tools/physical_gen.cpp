#include "tools/physical_gen.hpp"

#include <cstdio>

#include "common/table.hpp"

namespace smartnoc::tools {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void emit(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

}  // namespace

std::string generate_liberty(const NocConfig& cfg, circuit::SizingPreset sizing) {
  std::string s;
  emit(s, "/* Liberty timing/power library for the SMART VLR link cells.");
  emit(s, " * Sizing: %s; arcs from the Section III circuit model. */",
       circuit::sizing_name(sizing));
  emit(s, "library (smart_vlr_%s) {", cfg.link_swing == Swing::Low ? "low" : "full");
  emit(s, "  time_unit : \"1ps\";");
  emit(s, "  voltage_unit : \"1V\";");
  emit(s, "  leakage_power_unit : \"1uW\";");
  emit(s, "  nom_voltage : 0.90;");
  for (const char* dir : {"tx", "rx"}) {
    circuit::RepeatedLink link(cfg.link_swing, sizing);
    // Launch/resolve arc: half the traversal overhead per side; the per-mm
    // wire delay belongs to the net, not the cell.
    const double arc_ps = link.model().timing.t_overhead_ps / 2.0;
    const double leak_uw = link.static_power_uw_per_mm(true) / 2.0;
    emit(s, "  cell (vlr_%s_%db) {", dir, cfg.flit_bits);
    emit(s, "    area : %.2f;", link.model().area_um2_per_bit * cfg.flit_bits / 2.0);
    emit(s, "    leakage_power () { value : %.3f; }", leak_uw);
    emit(s, "    pin (en) { direction : input; capacitance : 0.0021; }");
    emit(s, "    bus (d_in) { bus_type : data; direction : input; capacitance : 0.0018; }");
    emit(s, "    bus (d_out) { bus_type : data; direction : output;");
    emit(s, "      timing () {");
    emit(s, "        related_pin : \"d_in\";");
    emit(s, "        cell_rise (scalar) { values(\"%.1f\"); }", arc_ps);
    emit(s, "        cell_fall (scalar) { values(\"%.1f\"); }", arc_ps);
    emit(s, "      }");
    emit(s, "    }");
    emit(s, "  }");
  }
  emit(s, "  type (data) { base_type : array; data_type : bit;");
  emit(s, "    bit_width : %d; bit_from : %d; bit_to : 0; }", cfg.flit_bits,
       cfg.flit_bits - 1);
  emit(s, "}");
  return s;
}

std::string generate_lef(const VlrBlock& block, const std::string& macro_name) {
  std::string s;
  emit(s, "VERSION 5.7 ;");
  emit(s, "MACRO %s", macro_name.c_str());
  emit(s, "  CLASS BLOCK ;");
  emit(s, "  ORIGIN 0 0 ;");
  emit(s, "  SIZE %.2f BY %.2f ;", block.width_um, block.height_um);
  for (const auto& p : block.placement) {
    emit(s, "  PIN d%d", p.bit);
    emit(s, "    DIRECTION INOUT ;");
    emit(s, "    PORT");
    emit(s, "      LAYER M4 ;");
    emit(s, "      RECT %.2f %.2f %.2f %.2f ;", p.x_um, p.y_um, p.x_um + 0.1, p.y_um + 0.1);
    emit(s, "    END");
    emit(s, "  END d%d", p.bit);
  }
  emit(s, "END %s", macro_name.c_str());
  emit(s, "END LIBRARY");
  return s;
}

RouterArea estimate_router_area(const NocConfig& cfg) {
  // 45nm area coefficients (documented here; all um^2):
  //   flip-flop based buffer: 2.6 per bit including read mux overhead;
  //   crossbar: 0.55 per bit per crosspoint (5x5 = 25 crosspoints);
  //   allocator: ~65 per request line; config register: 64 x 2.2.
  RouterArea a;
  const double buffer_bits =
      static_cast<double>(kNumDirs) * cfg.vcs_per_port * cfg.vc_depth_flits * cfg.flit_bits;
  a.buffers_um2 = buffer_bits * 2.6;
  a.crossbar_um2 = 25.0 * cfg.flit_bits * 0.55;
  a.credit_xbar_um2 = 25.0 * cfg.credit_bits * 0.55;
  a.allocator_um2 = 65.0 * kNumDirs * cfg.vcs_per_port;
  // One Tx + one Rx block per mesh port (4), sized by the repeater model.
  circuit::RepeatedLink link(cfg.link_swing, circuit::SizingPreset::Relaxed2GHz);
  a.vlr_um2 = 2.0 * 4.0 * link.model().area_um2_per_bit * cfg.flit_bits;
  a.config_reg_um2 = 64.0 * 2.2;
  return a;
}

std::string floorplan_report(const NocConfig& cfg) {
  const MeshDims dims = cfg.dims();
  const RouterArea area = estimate_router_area(cfg);
  const double tile_mm2 = cfg.hop_mm * cfg.hop_mm;
  const double router_mm2 = area.total() * 1e-6;
  const double noc_fraction = router_mm2 / tile_mm2;

  std::string s;
  emit(s, "=== Generated %dx%d NoC floorplan (Fig. 9 analog) ===", dims.width(), dims.height());
  emit(s, "tile pitch %.1f mm; router macro %.3f mm x %.3f mm at each tile corner;",
       cfg.hop_mm, std::sqrt(router_mm2), std::sqrt(router_mm2));
  emit(s, "remaining tile area reserved for the core (the figure's black regions).");
  s += '\n';
  for (int y = dims.height() - 1; y >= 0; --y) {
    std::string top, mid;
    for (int x = 0; x < dims.width(); ++x) {
      top += "+--------";
      mid += strf("|R%-2d     ", dims.id({x, y}));
    }
    emit(s, "%s+", top.c_str());
    emit(s, "%s|", mid.c_str());
    for (int r = 0; r < 2; ++r) {
      std::string core;
      for (int x = 0; x < dims.width(); ++x) core += "|  core  ";
      emit(s, "%s|", core.c_str());
    }
  }
  std::string bottom;
  for (int x = 0; x < dims.width(); ++x) bottom += "+--------";
  emit(s, "%s+", bottom.c_str());
  s += '\n';

  TextTable t({"Component", "area (um^2)", "share"});
  auto row = [&](const char* name, double v) {
    t.add_row({name, strf("%.0f", v), strf("%.1f%%", 100.0 * v / area.total())});
  };
  row("input buffers", area.buffers_um2);
  row("flit crossbar", area.crossbar_um2);
  row("credit crossbar", area.credit_xbar_um2);
  row("switch allocator", area.allocator_um2);
  row("VLR Tx/Rx blocks", area.vlr_um2);
  row("config register", area.config_reg_um2);
  t.add_row({"router total", strf("%.0f", area.total()), "100%"});
  s += t.str();
  s += '\n';
  emit(s, "NoC area fraction: %.2f%% of each %.1f x %.1f mm tile (%d routers, %.3f mm^2 total)",
       100.0 * noc_fraction, cfg.hop_mm, cfg.hop_mm, dims.nodes(),
       router_mm2 * dims.nodes());
  const int mesh_links = 2 * (dims.width() * (dims.height() - 1) + dims.height() * (dims.width() - 1));
  emit(s, "links: %d x %.1f mm, repeated every %.1f mm by VLRs (custom routed,",
       mesh_links, cfg.hop_mm, cfg.hop_mm);
  emit(s, "matching the paper's TCL-scripted inter-router wiring).");
  return s;
}

}  // namespace smartnoc::tools
