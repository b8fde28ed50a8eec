// The sweep-serving front door: glue between the job queue, the result
// cache and the exploration executor.
//
//   JobStore store("runs/");
//   ResultCache cache(store.cache_dir());
//   serve_loop(store, cache, opts);           // `explorer serve`
//
// or, for a one-off cached sweep without the queue:
//
//   ResultCache cache(".smartnoc-cache");
//   run_sweep(spec, threads, progress, cache_hooks(cache));
#pragma once

#include <string>

#include "explore/explore.hpp"
#include "serve/job_store.hpp"
#include "serve/result_cache.hpp"

namespace smartnoc::serve {

/// SweepHooks that consult/populate `cache` around every executor job.
/// Serving preserves the determinism contract: a cache hit re-stamps the
/// point echo exactly as run_point would, so the resulting table is
/// byte-identical to the uncached run (pinned by tests). Lookups are
/// bypassed (stores still happen) when the sweep requests telemetry or
/// trace files - those side effects only exist if the point actually runs.
/// Inside an executor call each thread resolves its points through one
/// explore::PointCursor, so the spec must stay unchanged for the call; a
/// store takes the key of the same thread's lookup of that point, so a
/// point's store must follow its lookup on one thread, as run_sweep and
/// run_job do. One hooks object may serve any number of sweeps in turn.
explore::SweepHooks cache_hooks(ResultCache& cache);

struct ServeOptions {
  int threads = 0;          ///< executor threads (<=0 = all cores)
  bool once = false;        ///< drain the queue and exit instead of polling
  double poll_seconds = 0.5;
  bool quiet = false;       ///< suppress per-job progress on stderr
  /// Min interval between live-status writes (metrics.prom + heartbeat.json
  /// in the queue root, tmp+rename). <= 0 writes on every progress tick.
  double heartbeat_seconds = 1.0;
  bool telemetry_files = true;  ///< write metrics.prom/metrics.json/heartbeat.json
  bool trace_spans = false;     ///< write jobs/<id>/spans.json (chrome://tracing)
};

/// Runs (or resumes) one job to completion: points already in the
/// checkpoint are loaded, every missing point is executed (through the
/// cache when one is given) and checkpointed as it completes, then
/// results.csv/results.json/DONE are written. Returns the full table.
/// A job whose spec does not parse is marked FAILED and returns an empty
/// table. A job already Done just loads its results.
explore::ResultTable run_job(JobStore& store, const std::string& id, ResultCache* cache,
                             const ServeOptions& opt);

/// The server: scan the queue, run every Pending/Partial job, then either
/// exit (opt.once) or poll for new submissions forever. Returns the number
/// of jobs that ended Failed.
int serve_loop(JobStore& store, ResultCache& cache, const ServeOptions& opt);

}  // namespace smartnoc::serve
