// Design-space sweep declaration: a base scenario, the values to sweep
// over it, and their expansion into a flat run matrix.
//
// A SweepSpec is Noxim Explorer's "space file" over one simulator: a base
// sim::ScenarioSpec plus axes, each a scenario key and the values it takes.
// Grid point i decodes i as a mixed-radix number over the axes (the first
// axis outermost) and applies each chosen value to a copy of the base
// through the scenario's own key handler. Expansion is purely positional:
// point i is always the same configuration with the same derived seed, no
// matter how many threads later execute it - this is what makes N-thread
// sweep results bit-identical to the 1-thread run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace smartnoc::explore {

/// One point of the run matrix: a grid point is its index alone.
struct RunPoint {
  std::size_t index = 0;  ///< position in the matrix (stable across threads)
  /// Non-empty = a scenario point: the run is the multi-phase Session
  /// declared in this .scn/.json file, which carries its own design,
  /// config, seed and phases; the record echoes what it resolves to.
  std::string scenario_file;
};

/// One swept key and its values, in declaration order.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// The base every grid point starts from: the classic warmup/measure/drain
/// phases over NocConfig::paper_4x4() at sweep-scale windows (shorter than
/// the paper's single-run defaults; a sweep trades per-point precision for
/// coverage), SMART, uniform-random traffic at 0.05 flits/node/cycle.
sim::ScenarioSpec sweep_base();

/// A base scenario, its axes and its scenario files. The defaults give a
/// single Table II SMART point.
struct SweepSpec {
  /// Scalar sweep lines (warmup, measure, drain_timeout, shard_threads or
  /// any other scenario key) set it. Its phases stay the classic three;
  /// their lengths follow the resolved config's windows. shard_threads is a
  /// scalar, not an axis: like the executor's thread count it cannot change
  /// a record, only wall-clock, and run_sweep clamps workers x shards to the
  /// hardware concurrency.
  sim::ScenarioSpec base = sweep_base();
  /// The axes in nesting order, outermost first: mesh, flit_bits, hpc,
  /// injection, workload, fault_rate, fault_schedule, design - whatever
  /// order a sweep file declares them in. Values are scenario tokens;
  /// workload values are WorkloadRegistry spellings.
  std::vector<SweepAxis> axes;
  /// Each file expands to one extra point running that multi-phase
  /// scenario as-is (own design/config/seed; the axes do not multiply into
  /// it). A sweep with scenario files but no axes sweeps just those files.
  std::vector<std::string> scenario_files;
  /// Seeds each grid point through its index (scenario points keep their
  /// file's seed).
  std::uint64_t base_seed = 1;

  // Per-point telemetry outputs (explorer --telemetry / --record-trace):
  // non-empty prefixes make every point (all three designs) write
  // <prefix>_p<index>.csv / _power.csv / _heatmap.csv / .sntr next to the
  // sweep results. The _power.csv sidecar is the per-epoch Fig. 10b
  // breakdown (time-resolved power). A zero epoch keeps a scenario file's
  // declared sample window, else 1024 cycles.
  std::string telemetry_prefix;
  std::string trace_prefix;
  Cycle telemetry_epoch = 0;

  /// Number of points: the product of the axis sizes (no grid when there
  /// are scenario files and no axes), plus one per scenario file.
  std::size_t size() const;

  /// Throws ConfigError on an empty axis or scenario file name, a base
  /// without the classic three phases, a zero measure window or an
  /// out-of-range shard_threads.
  void validate() const;

  /// The run matrix: the grid points, then the scenario points.
  std::vector<RunPoint> expand() const;
};

/// Parses the line-oriented sweep-file format:
///
///   # comment
///   mesh      = 4x4, 8x8
///   flit_bits = 32
///   injection = 0.02, 0.05
///   pattern   = uniform, transpose       # workloads (any registry key)
///   app       = vopd                     # more workloads (appended)
///   design    = mesh, smart
///   fault_rate = 0.0
///   fault_schedule = none, kill@2000:5:E   # online fault events (token grammar)
///   scenario_files = a.scn, b.scn        # one point per scenario file
///   seed      = 1
///   warmup = 2000
///   measure = 20000
///   drain_timeout = 50000
///   shard_threads = 4                    # per-point kernel threads (not an axis)
///
/// One `key = values` assignment per line. Unknown keys and malformed
/// values throw ConfigError with the line number.
SweepSpec parse_sweep(const std::string& text);

/// Applies one `key = v1, v2, ...` assignment: a sweep-file line, or an
/// explorer axis flag (--mesh V is key "mesh"). The keys are the scenario
/// keys plus five sweep-only ones: `workload` (also `pattern`, `app`) and
/// `injection` set the first phase's workload and injection,
/// `fault_schedule` sets the fault events (one compact token per value,
/// events joined by '+'), `seed` is base_seed and `scenario_files`
/// appends files. An axis key (see SweepSpec::axes) replaces its axis; the
/// first workload key replaces the workload axis and later ones append,
/// which `workloads_replaced` tracks across calls. Any other key takes one
/// value, applied to the base.
void apply_sweep_key(SweepSpec& spec, const std::string& key, const std::string& values,
                     bool& workloads_replaced);

/// Sets one swept key on a point's scenario: a sweep-only key, or any
/// scenario key through sim::apply_scalar.
void apply_point_value(sim::ScenarioSpec& sc, const std::string& key, const std::string& value);

}  // namespace smartnoc::explore
