// Work-stealing parallel executor for exploration jobs.
//
// Each job is one whole simulation (milliseconds to seconds), so the
// scheduling goal is load balance across wildly uneven job costs (an 8x8
// uniform-random run costs ~50x a 2x2 neighbor run), not microsecond
// dispatch. Jobs are distributed round-robin into per-worker deques;
// a worker pops from the front of its own deque and, when empty, steals
// from the back of the most loaded victim. Stealing from the opposite end
// keeps the owner and thieves off the same cache lines of work.
//
// Threads: the calling thread runs lane 0, and lanes 1..w-1 run on
// process-wide threads that stay parked on a condition variable between
// calls (they never spin, so a cold sweep's simulations and a sharded
// point's threads keep the CPUs). A call spawns a thread only when no parked
// one is idle, so a warm sweep's calls, each a fraction of a millisecond,
// pay a wake-up rather than a spawn and join, and a for_each inside a job
// never waits for a busy thread.
//
// Determinism contract: the executor never influences results. Jobs get
// their identity (matrix index) and derive everything - config, RNG
// streams, output slot - from it, so any thread interleaving produces the
// same result table.
//
// Observability: each run updates the per-worker families in
// obs::MetricsRegistry::global() (tasks, steals, busy/idle seconds, queue
// depth; each lane's registered once, in lane order) and, when a SpanTracer
// is attached, records one span per job on the worker's lane plus an
// instant per successful steal. Both are wall-clock side channels - they
// never feed back into job results. The whole layer can be switched off via
// instrumentation_enabled() (the bench's A/B knob).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace smartnoc::obs {
class SpanTracer;
}

namespace smartnoc::explore {

class Executor {
 public:
  /// threads <= 0 selects std::thread::hardware_concurrency().
  explicit Executor(int threads = 0);

  int threads() const { return threads_; }

  /// Attaches a span tracer for subsequent for_each runs (nullptr detaches).
  /// `span_category` labels the spans ("point" for sweep jobs). Not
  /// thread-safe against a concurrent for_each; set it before running.
  void set_tracer(obs::SpanTracer* tracer, std::string span_category = "task");

  /// Runs job(i) for every i in [0, n) across the workers and returns when
  /// all are done. The calling thread runs as worker 0 and the other lanes
  /// run on parked pool threads (see above). If any job throws, the first
  /// exception is rethrown here after all workers finish.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& job) const;

  /// Lane of the calling thread inside a for_each (0-based), or -1 outside.
  /// Jobs on the caller's own lane see 0, at any width, and the caller
  /// reads its previous value (-1 at top level) again once for_each returns.
  static int current_worker();

  /// The for_each call the calling thread runs a job of: unique per call
  /// in the process, 0 outside one. Callers keep the inputs of a call's
  /// jobs fixed until it returns, so per-thread state derived from them
  /// (the serving hooks' PointCursor) holds for as long as this does.
  static std::uint64_t current_call();

  /// Process-wide switch for the executor's metrics + span recording.
  /// Defaults to on; bench_gates' obs_machinery_cost gate flips it to
  /// measure the armed machinery against a clean baseline.
  static std::atomic<bool>& instrumentation_enabled();

 private:
  int threads_;
  obs::SpanTracer* tracer_ = nullptr;
  std::string span_category_ = "task";
};

}  // namespace smartnoc::explore
