// Timing and energy models of the paper's two repeater families:
//
//  * Full-swing repeater: conventional inverter chain; rail-to-rail wire
//    excursions; no static current; delay/mm set by driver + wire RC.
//  * Voltage-locked repeater (VLR, paper Fig. 2): clockless low-swing
//    repeater that locks the wire node near the threshold of its first
//    inverter. Two behaviours matter at the model level:
//      1. Static current paths (TxP-wire-RxN / TxN-wire-RxP) burn power
//         whenever the link is enabled, so energy/bit carries a P_static/D
//         term that dominates at low data rates (visible in Table I: 128
//         fJ/b/mm at 1 Gb/s vs 87 at 3 Gb/s for the low-swing row).
//      2. Voltage locking narrows the toggling band as the data rate rises:
//         the node never settles to the static V_low/V_high rails, so both
//         the charge moved per transition and the threshold-crossing time
//         shrink with D. This gives the  -k_lock*D  terms in both the delay
//         and energy expressions (the paper: the feedback "generates
//         transient overshoots at node X, resulting in lower repeater
//         propagation delay").
//
// All coefficients are calibrated to the paper's published corner points
// (Table I and the Section III chip measurements); the residuals are
// reported by paper_report and pinned in results/paper/table1_*.csv.
#pragma once

#include <string>

#include "common/types.hpp"

namespace smartnoc::circuit {

/// Which physical design of the link circuit is being modelled.
/// Matches the three regimes the paper reports numbers for.
enum class SizingPreset {
  Relaxed2GHz,     ///< Table I rows (*): resized for 2 GHz, 2x wire spacing
  FabricatedWide,  ///< Table I rows (**): fabricated sizes, wider spacing
  FabricatedChip,  ///< Section III measurements: fabricated chip, min pitch
};

inline const char* sizing_name(SizingPreset s) {
  switch (s) {
    case SizingPreset::Relaxed2GHz: return "relaxed-2GHz (*)";
    case SizingPreset::FabricatedWide: return "fabricated, wide spacing (**)";
    case SizingPreset::FabricatedChip: return "fabricated chip, min pitch";
  }
  return "?";
}

/// Per-stage (1 mm wire + one repeater) timing model:
///   t_mm(D)  = t_mm_base - lock_boost * D        [ps/mm]
///   t_link(h,D) = t_overhead + h * t_mm(D)       [ps for h mm]
/// For full-swing repeaters lock_boost = 0 (no locking mechanism).
struct RepeaterTiming {
  double t_overhead_ps;        ///< Tx launch + Rx resolve, once per traversal
  double t_mm_base_ps;         ///< per-mm delay extrapolated to D -> 0
  double lock_boost_ps_per_gbps;  ///< VLR locking speedup per Gb/s

  double delay_per_mm_ps(double rate_gbps) const {
    const double t = t_mm_base_ps - lock_boost_ps_per_gbps * rate_gbps;
    // The boost saturates: delay cannot drop below half the base value.
    return t > 0.5 * t_mm_base_ps ? t : 0.5 * t_mm_base_ps;
  }
};

/// Per-bit energy model:
///   E(D) = e_dyn + p_static / D - k_lock * D     [fJ/bit/mm]
/// p_static in uW/mm equals fJ/bit/mm * Gb/s (unit identity uW = fJ*GHz).
struct RepeaterEnergy {
  double e_dyn_fj;             ///< switched energy per bit per mm
  double p_static_uw_per_mm;   ///< static current paths (VLR only)
  double k_lock_fj_per_gbps;   ///< locking-band narrowing coefficient

  double energy_fj_per_bit_mm(double rate_gbps) const {
    const double e = e_dyn_fj + p_static_uw_per_mm / rate_gbps - k_lock_fj_per_gbps * rate_gbps;
    return e > 0.0 ? e : 0.0;
  }
};

/// Calibrated coefficients for a (sizing, swing) pair.
/// See the fitting notes in link_model.cpp for how each number was derived
/// from the paper's Table I / chip measurements.
struct RepeaterModel {
  RepeaterTiming timing;
  RepeaterEnergy energy;
  double max_rate_gbps;   ///< highest data rate with BER < 1e-9
  double vdd_v;           ///< supply
  double swing_v;         ///< wire voltage excursion at low data rate
  double area_um2_per_bit;  ///< 1-bit Tx+Rx pair (feeds tools::VlrPlacer)

  static RepeaterModel make(Swing swing, SizingPreset sizing);
};

}  // namespace smartnoc::circuit
