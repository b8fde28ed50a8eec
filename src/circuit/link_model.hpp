// The repeated SMART link: N repeaters at 1 mm pitch, modelled end to end.
//
// This is the circuit-level substrate the SMART NoC consumes. Three outputs
// are load-bearing for the architecture:
//   * max_hops_per_cycle(rate)  -> HPC_max, the single-cycle reach that
//     bounds bypass segments (paper: 8 mm at 2 GHz for low swing);
//   * energy_fj_per_bit_mm(rate) -> the Link component of Fig. 10b;
//   * delay_per_mm_ps(rate)      -> .lib timing arcs for the tool flow.
#pragma once

#include <vector>

#include "circuit/repeater.hpp"
#include "common/types.hpp"

namespace smartnoc::circuit {

class RepeatedLink {
 public:
  RepeatedLink(Swing swing, SizingPreset sizing)
      : swing_(swing), sizing_(sizing), model_(RepeaterModel::make(swing, sizing)) {}

  Swing swing() const { return swing_; }
  SizingPreset sizing() const { return sizing_; }
  const RepeaterModel& model() const { return model_; }

  /// Per-mm propagation delay at the given data rate, ps.
  double delay_per_mm_ps(double rate_gbps) const {
    return model_.timing.delay_per_mm_ps(rate_gbps);
  }

  /// Total traversal delay for `mm` millimetres, ps (launch + mm stages).
  double traversal_delay_ps(int mm, double rate_gbps) const {
    return model_.timing.t_overhead_ps + mm * delay_per_mm_ps(rate_gbps);
  }

  /// Table I: the maximum number of 1 mm hops whose traversal fits inside
  /// one bit period at `rate_gbps` (the clock period when the link is
  /// clocked at the data rate). Zero if even one hop does not fit.
  int max_hops_per_cycle(double rate_gbps) const;

  /// Table I energy column, fJ/bit/mm at the given data rate.
  double energy_fj_per_bit_mm(double rate_gbps) const {
    return model_.energy.energy_fj_per_bit_mm(rate_gbps);
  }

  /// Power of an `mm`-long link streaming at `rate_gbps`, in mW
  /// (used for paper_report's chip correlation, results/paper/table1_chip.csv).
  double link_power_mw(int mm, double rate_gbps) const {
    return energy_fj_per_bit_mm(rate_gbps) * mm * rate_gbps * 1e-3;  // fJ*Gb/s = uW
  }

  /// Static power burned when the link's enable (EN) is asserted, per mm,
  /// in uW. Gated off when the link is unused (paper Sec. III).
  double static_power_uw_per_mm(bool enabled) const {
    return enabled ? model_.energy.p_static_uw_per_mm : 0.0;
  }

  /// Highest data rate this circuit sustains with BER below 1e-9.
  double max_rate_gbps() const { return model_.max_rate_gbps; }

 private:
  Swing swing_;
  SizingPreset sizing_;
  RepeaterModel model_;
};

/// One row slice of the paper's Table I, produced by the model with the
/// paper's published value alongside for correlation.
struct Table1Cell {
  double rate_gbps;
  Swing swing;
  SizingPreset sizing;
  int model_hops;
  int paper_hops;
  double model_energy_fj;
  double paper_energy_fj;
};

/// Regenerates the full Table I grid (both sizings, both swings, all six
/// data rates) with paper values attached. Used by paper_report
/// (results/paper/table1_hops.csv) and by the regression tests that pin the
/// reproduction.
std::vector<Table1Cell> make_table1();

/// Section III chip-correlation numbers: measured (paper) vs modelled.
struct ChipCorrelation {
  double vlr_max_rate_gbps;          // paper: 6.8
  double full_max_rate_gbps;         // paper: 5.5
  double vlr_power_mw_at_max;        // paper: 4.14 (10 mm @ 6.8 Gb/s)
  double vlr_energy_fj_b_at_max;     // paper: ~608 fJ/b over 10 mm
  double full_power_mw_at_55;        // paper: 4.21
  double vlr_power_mw_at_55;         // paper: 3.78
  double vlr_delay_ps_per_mm;        // paper: ~60
  double full_delay_ps_per_mm;       // paper: ~100
};

/// Model-side chip correlation for the fabricated min-pitch circuit.
ChipCorrelation model_chip_correlation();
/// The paper's measured values, for printing next to the model's.
ChipCorrelation paper_chip_correlation();

/// HPC_max used by the NoC: single-cycle multi-hop reach when the link is
/// clocked at the network frequency (bit period == cycle time). The paper's
/// headline configuration (low swing, relaxed sizing, 2 GHz) gives 8.
int hpc_max_for(Swing swing, double freq_ghz);

}  // namespace smartnoc::circuit
