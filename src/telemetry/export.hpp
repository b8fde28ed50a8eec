// Exporters over a telemetry Probe: CSV time series, per-link utilization
// heatmaps (CSV and ASCII), and Chrome-tracing JSON.
//
// The Chrome export targets chrome://tracing (or https://ui.perfetto.dev):
// each directed link is one track, each captured flit traversal one event.
// A SMART multi-hop bypass shows up as events on several link tracks at the
// *same* tick - the paper's single-cycle multi-hop signature - while the
// baseline mesh advances one link per cycle.
#pragma once

#include <string>

#include "telemetry/probe.hpp"

namespace smartnoc::telemetry {

/// Epoch time series as CSV. One row per epoch: epoch index, start cycle,
/// link flits, router latches, injected packets, ejected flits, in-flight
/// occupancy at epoch end, and the label of any phase mark falling inside
/// the epoch (era boundaries surface as rows with a non-empty `phase`).
std::string export_time_series_csv(const Probe& probe);

/// Per-directed-link totals as CSV: from,dir,to,flits,flits_per_cycle.
/// Links that never carried a flit are included (utilization 0), so the
/// matrix is complete for downstream heatmap tooling. `span_cycles` is
/// the cycles actually simulated (the utilization denominator; Session
/// passes its global cycle count) - 0 falls back to the materialized
/// epoch span, which overestimates by up to one epoch.
std::string export_link_heatmap_csv(const Probe& probe, Cycle span_cycles = 0);

/// ASCII heatmap of per-node link utilization: one character cell per
/// router (total flits leaving that router across all epochs), scaled to
/// the busiest node; legend + per-link top talkers appended.
std::string export_link_heatmap_ascii(const Probe& probe);

/// Per-epoch power breakdown as CSV (the time-resolved Fig. 10b): one row
/// per epoch with the four category watts, the total, and the label of any
/// phase mark falling inside the epoch. Requires a power-series probe
/// (Config::power_series); each epoch's activity is folded through the
/// energy model over a full epoch_cycles window.
std::string export_power_series_csv(const Probe& probe, const NocConfig& cfg,
                                    const power::EnergyParams& params);

/// Chrome-tracing JSON (array-of-events form) from the probe's raw link
/// event capture. One pid per mesh row of routers, one tid per directed
/// link; each flit traversal is a 1-cycle duration event whose timestamp
/// is the global cycle. Phase marks become instant events; a truncated
/// event capture is flagged with an instant event at the cut.
///
/// When `cfg`/`params` are non-null and the probe keeps a power series,
/// the export additionally carries one "power (W)" counter track with the
/// four Fig. 10b categories sampled per epoch (rendered as a stacked area
/// in chrome://tracing / Perfetto).
std::string export_chrome_trace_json(const Probe& probe, const NocConfig* cfg = nullptr,
                                     const power::EnergyParams* params = nullptr);

}  // namespace smartnoc::telemetry
