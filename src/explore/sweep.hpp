// Design-space sweep declaration: the parameter axes of an exploration run
// and their expansion into a flat run matrix.
//
// A SweepSpec is the cross product of its axes (mesh dims x channel width x
// HPC_max x injection scale x workload x fault rate x design). Expansion is
// purely positional: point `i` of the matrix is always the same
// configuration with the same derived seed, no matter how many threads later
// execute it - this is what makes N-thread sweep results bit-identical to
// the 1-thread run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config_fields.hpp"
#include "common/geometry.hpp"
#include "mapping/apps.hpp"
#include "noc/traffic.hpp"

namespace smartnoc::explore {

/// What traffic drives one run: a synthetic pattern or a mapped SoC app.
struct Workload {
  enum class Kind : std::uint8_t { Synthetic, App };

  Kind kind = Kind::Synthetic;
  noc::SyntheticPattern pattern = noc::SyntheticPattern::UniformRandom;
  mapping::SocApp app = mapping::SocApp::VOPD;

  static Workload synthetic(noc::SyntheticPattern p) {
    Workload w;
    w.kind = Kind::Synthetic;
    w.pattern = p;
    return w;
  }
  static Workload soc_app(mapping::SocApp a) {
    Workload w;
    w.kind = Kind::App;
    w.app = a;
    return w;
  }

  std::string name() const;

  friend bool operator==(const Workload&, const Workload&) = default;
};

/// One point of the expanded run matrix: a fully-determined configuration.
struct RunPoint {
  std::size_t index = 0;  ///< position in the matrix (stable across threads)
  MeshDims mesh;
  int flit_bits = 32;
  int hpc_max = 0;           ///< 0 = derive from the circuit model
  double injection = 0.05;   ///< flits/node/cycle (synthetic) or bandwidth
                             ///< multiplier (app workloads)
  Workload workload;
  double fault_rate = 0.0;   ///< probability a mesh link (pair) has failed
  /// Online fault schedule in the compact token grammar of
  /// noc/fault_engine.hpp ("none" = no timed events). Events fire against
  /// the *live* network mid-run (kill/glitch/stall), unlike fault_rate's
  /// static construction-time pattern.
  std::string fault_schedule = "none";
  Design design = Design::Smart;
  std::uint64_t seed = 0;    ///< derived per-point; feeds traffic and faults
  /// Non-empty = a scenario point: the run is the multi-phase Session
  /// declared in this .scn/.json file, which carries its own design,
  /// config, seed and phases. The fields above are ignored; the record
  /// echoes the values the scenario resolves to.
  std::string scenario_file;
};

/// The declared axes of a sweep plus the shared simulation window. Empty
/// axes are invalid; the defaults give a single Table II SMART point.
struct SweepSpec {
  std::vector<MeshDims> meshes = {MeshDims(4, 4)};
  std::vector<int> flit_bits = {32};
  std::vector<int> hpc_max = {0};
  std::vector<double> injections = {0.05};
  std::vector<Workload> workloads = {Workload::synthetic(noc::SyntheticPattern::UniformRandom)};
  std::vector<double> fault_rates = {0.0};
  /// Fault-schedule axis: one compact token per value ("none", or events
  /// joined by '+', e.g. "kill@2000:5:E+stall@3000:7@3200" - comma-free by
  /// construction, since commas separate axis values).
  std::vector<std::string> fault_schedules = {"none"};
  std::vector<Design> designs = {Design::Smart};
  /// Scenario axis: each file expands to one extra point running that
  /// multi-phase scenario as-is (own design/config/seed; the cross-product
  /// axes do not multiply into it). A sweep file containing only
  /// `scenario_files = ...` sweeps exactly those scenarios.
  std::vector<std::string> scenario_files;
  /// False = emit no cross-product points, only the scenario_files ones.
  /// parse_sweep clears it for scenario-only files (no config axis named).
  bool config_points = true;

  std::uint64_t base_seed = 1;
  // Sweep-scale windows (shorter than the paper's single-run defaults;
  // a sweep trades per-point precision for coverage).
  Cycle warmup_cycles = 2'000;
  Cycle measure_cycles = 20'000;
  Cycle drain_timeout = 50'000;
  /// Shard threads for every point's cycle kernel (NocConfig::shard_threads).
  /// A single value, not an axis: like the executor's thread count it cannot
  /// change a record, only wall-clock. run_sweep clamps workers x shards to
  /// the hardware concurrency so a parallel sweep of sharded points does not
  /// oversubscribe the machine.
  int shard_threads = 1;

  // Per-point telemetry outputs (explorer --telemetry / --record-trace):
  // non-empty prefixes make every point (all three designs) write
  // <prefix>_p<index>.csv / _power.csv / _heatmap.csv / .sntr next to the
  // sweep results. The _power.csv sidecar is the per-epoch Fig. 10b
  // breakdown (time-resolved power).
  std::string telemetry_prefix;
  std::string trace_prefix;
  Cycle telemetry_epoch = 1'024;

  /// Number of points the matrix expands to (product of axis sizes).
  std::size_t size() const;

  /// Throws ConfigError if any axis is empty or a value is out of range.
  void validate() const;

  /// The full run matrix, in axis-major order (meshes outermost, designs
  /// innermost), each point carrying its derived seed.
  std::vector<RunPoint> expand() const;

  /// The NocConfig for one point: primary fields from the point, dependent
  /// fields auto-fitted, sim window from the spec. Throws ConfigError when
  /// the combination is inconsistent (e.g. packet not a multiple of flit).
  NocConfig config_for(const RunPoint& pt) const;
};

/// Parses the line-oriented sweep-file format:
///
///   # comment
///   mesh      = 4x4, 8x8
///   flit_bits = 32
///   injection = 0.02, 0.05
///   pattern   = uniform, transpose       # synthetic workloads
///   app       = vopd                     # SoC-app workloads (appended)
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
/// explorer axis flag (--mesh V is key "mesh"). An axis key replaces that
/// axis and sets config_points; the first workload key (pattern, app,
/// workload) replaces the workload axis and later ones append, which
/// `workloads_replaced` tracks across calls. Scalar keys take one value.
void apply_sweep_key(SweepSpec& spec, const std::string& key, const std::string& values,
                     bool& workloads_replaced);

/// A pattern or app name. Throws ConfigError on an unknown one. (The other
/// value parsers are common/parse.hpp's and common/config_fields.hpp's.)
Workload parse_workload(const std::string& token);

}  // namespace smartnoc::explore
