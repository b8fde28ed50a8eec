// Public entry point of the exploration subsystem: declare a SweepSpec,
// call run_sweep, read the ResultTable.
//
//   const explore::SweepSpec spec = explore::parse_sweep(
//       "mesh = 4x4, 8x8\n"
//       "injection = 0.02, 0.05, 0.1\n"
//       "design = mesh, smart\n");
//   explore::ResultTable table = explore::run_sweep(spec, /*threads=*/0);
//   std::fputs(table.summary().c_str(), stdout);
//
// The table is identical for any thread count (see executor.hpp for the
// determinism contract).
#pragma once

#include "explore/executor.hpp"
#include "explore/job.hpp"
#include "explore/result_sink.hpp"
#include "explore/sweep.hpp"

namespace smartnoc::explore {

/// Expands the sweep and runs every point; threads <= 0 uses all cores.
/// Optional progress callback fires after each completed run (from worker
/// threads; must be thread-safe) with (completed_so_far, total).
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Executor-level result hooks - how the serving cache plugs into a sweep
/// without the explore layer depending on it. Both run on worker threads
/// and must be thread-safe.
struct SweepHooks {
  /// Consulted before a point is simulated. Return true and fill `rec`
  /// (including rec.index = pt.index) to serve the point without running
  /// it. The hook must preserve the determinism contract: a served record
  /// must be byte-identical to what run_point would have produced.
  std::function<bool(const SweepSpec&, const RunPoint&, RunRecord&)> lookup;
  /// Called with every record the executor actually computed (not with
  /// served ones), e.g. to populate the cache: right after the point's
  /// lookup, on the same thread.
  std::function<void(const SweepSpec&, const RunPoint&, const RunRecord&)> store;
  /// When set, the executor records one span per point (plus steal markers)
  /// into this tracer. Pure side channel: never influences the table.
  obs::SpanTracer* tracer = nullptr;
};

ResultTable run_sweep(const SweepSpec& spec, int threads = 0, const ProgressFn& progress = {},
                      const SweepHooks& hooks = {});

}  // namespace smartnoc::explore
