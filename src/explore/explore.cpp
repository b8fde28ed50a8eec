#include "explore/explore.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/log.hpp"

namespace smartnoc::explore {

ResultTable run_sweep(const SweepSpec& spec, int threads, const ProgressFn& progress,
                      const SweepHooks& hooks) {
  const std::vector<RunPoint> points = spec.expand();
  ResultTable table(points.size());
  std::atomic<std::size_t> completed{0};

  Executor exec(threads);
  // Two thread axes multiply here: executor workers x per-point shard
  // threads. Cap the product at the hardware concurrency - oversubscribed
  // shard threads spin at the per-cycle barrier and make every point
  // slower, not faster. The cap never changes a record (bit-identity at
  // any shard count); scenario-file points are capped too in run_point.
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = std::max(1, exec.threads());
  const int shard_cap = std::max(1, hw / workers);
  const int shards = spec.base.config.shard_threads;
  if (shards > 1) {
    SMARTNOC_LOG_INFO("sweep plan: %d workers x %d shard threads per point "
                      "(requested %d, %d hardware threads)",
                      workers, std::min(shards, shard_cap), shards, hw);
  }
  if (hooks.tracer) exec.set_tracer(hooks.tracer, "point");
  exec.for_each(points.size(), [&](std::size_t i) {
    // Each slot is written by exactly one job; the join in for_each
    // publishes all writes before the table is read.
    RunRecord rec;
    if (hooks.lookup && hooks.lookup(spec, points[i], rec)) {
      table.set(i, std::move(rec));
    } else {
      rec = run_point(spec, points[i], shard_cap);
      if (hooks.store) hooks.store(spec, points[i], rec);
      table.set(i, std::move(rec));
    }
    const std::size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (progress) progress(done, points.size());
  });
  return table;
}

}  // namespace smartnoc::explore
