// One exploration job: RunPoint -> RunRecord.
//
// Each job owns its entire world - config, flow set, network, traffic
// engine, fault set - constructed from the point's derived seed. Nothing
// is shared with other jobs, which is what lets the executor run them on
// any thread in any order with bit-identical results.
#pragma once

#include <vector>

#include "explore/result_sink.hpp"
#include "explore/sweep.hpp"
#include "sim/scenario.hpp"

namespace smartnoc::explore {

/// The fully-resolved ScenarioSpec one point executes: the base with the
/// point's axis values and derived seed applied, or - for a scenario point -
/// the parsed .scn/.json file. Telemetry prefixes from the spec are applied
/// either way. Throws ConfigError when the file is unreadable or the
/// configuration is inconsistent (e.g. packet not a multiple of flit). This
/// is the single canonical description of a point's computation: the
/// serving cache keys points by hashing exactly this structure
/// (src/serve/point_key.hpp), so any input that can change a result must
/// flow through here.
sim::ScenarioSpec make_point_scenario(const SweepSpec& spec, const RunPoint& pt);

/// Resolves the points of one spec for one worker lane. A grid point is a
/// left fold over the axes, outermost first, from the base; the cursor
/// keeps the scenario after each axis prefix and re-applies only the axes
/// from the point's first digit that differs from the last point it
/// resolved. Each step is the same pure apply, so the result equals a fresh
/// resolution in any visiting order; make_point_scenario and run_point
/// resolve through a fresh cursor. The spec must outlive the cursor and
/// stay unchanged while it is used. Not thread-safe: one per lane.
class PointCursor {
 public:
  explicit PointCursor(const SweepSpec& spec);

  /// make_point_scenario without the final config check, so a point whose
  /// combination is inconsistent still has a scenario to echo. The result
  /// lives in the cursor until the next call. Throws ConfigError when a
  /// scenario file is unreadable.
  const sim::ScenarioSpec& resolve(const RunPoint& pt);

  const SweepSpec& spec() const { return *spec_; }

 private:
  /// The base with axes [0, k) applied: the base itself, or prefix_[k - 1].
  const sim::ScenarioSpec& level(std::size_t k) const {
    return k == 0 ? spec_->base : prefix_[k - 1];
  }

  const SweepSpec* spec_;
  std::vector<sim::ScenarioSpec> prefix_;  ///< levels 1 .. axes-1
  std::size_t valid_ = 0;                  ///< prefix_[0, valid_) hold for digits_
  std::vector<std::size_t> digits_;        ///< value per axis of the kept levels
  std::vector<std::size_t> want_;          ///< value per axis of the point resolving
  sim::ScenarioSpec point_;
};

/// Stamps the point echo columns of `rec` (all but hpc_max, whose effective
/// value comes out of the session) from `resolved`, the scenario the point
/// resolved to. run_point and the serving cache's hits both stamp through
/// here, so a hit is byte-identical to a computed record no matter which
/// sweep inserted it.
void stamp_point_echo(const RunPoint& pt, const sim::ScenarioSpec& resolved, RunRecord& rec);

/// Runs one point of the matrix to completion. Never throws: configuration
/// errors, simulation errors and drain timeouts all come back as a record
/// with ok=false and the cause in `error`.
///
/// `shard_cap` > 0 caps the point's NocConfig::shard_threads (scenario
/// files included) - run_sweep passes hardware_concurrency / workers so a
/// parallel sweep of sharded points cannot oversubscribe the machine.
/// Records are unaffected by construction (bit-identity at any shard
/// count), so served/cached results stay comparable. 0 = no cap.
RunRecord run_point(const SweepSpec& spec, const RunPoint& pt, int shard_cap = 0);

}  // namespace smartnoc::explore
