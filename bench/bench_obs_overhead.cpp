// What the armed observability machinery costs when nobody is scraping:
// metrics registration + per-worker counters + the span tracer, measured
// against the same sweep with Executor::instrumentation_enabled() off
// (the FaultArmed gating pattern: the idle machinery must be invisible).
//
// Three configurations, best-of-reps each:
//   off     - instrumentation disabled, the baseline
//   armed   - metrics on (the production default), no tracer attached
//   traced  - metrics on + SpanTracer recording every point span
//
// End-to-end sweep A/B differences sit inside scheduler noise, so the gate
// metric is measured directly (like bench_serve_cache's cold_overhead_direct):
// per-task instrumentation cost over a large micro-task batch, divided by the
// baseline per-point simulation time.
//
// The trailing `obs_overhead <metric> <value>` lines are machine-readable;
// CI gates overhead_direct < 2% and tables_identical == 1.
#include <chrono>
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "explore/explore.hpp"
#include "obs/spans.hpp"

int main() {
  using namespace smartnoc;
  using Clock = std::chrono::steady_clock;

  const explore::SweepSpec spec = explore::parse_sweep(
      "mesh = 4x4, 6x6\n"
      "injection = 0.01, 0.02, 0.04, 0.08\n"
      "design = mesh, smart\n"
      "warmup = 1000\n"
      "measure = 20000\n"
      "drain_timeout = 50000\n");

  const int threads = 4;
  const int reps = 3;
  const auto points = static_cast<double>(spec.size());

  std::printf("=== Observability overhead: %zu-point sweep, %d threads, best of %d reps ===\n\n",
              spec.size(), threads, reps);

  const auto timed_sweep = [&](const explore::SweepHooks& hooks) {
    const auto start = Clock::now();
    const explore::ResultTable table = explore::run_sweep(spec, threads, {}, hooks);
    return std::pair<double, std::string>(
        std::chrono::duration<double>(Clock::now() - start).count(), table.to_csv());
  };

  // Baseline: everything off.
  explore::Executor::instrumentation_enabled() = false;
  double off_s = 1e300;
  std::string reference_csv;
  for (int r = 0; r < reps; ++r) {
    auto [s, csv] = timed_sweep({});
    off_s = std::min(off_s, s);
    reference_csv = std::move(csv);
  }

  // Armed: the production default - counters live, nobody scraping.
  explore::Executor::instrumentation_enabled() = true;
  double armed_s = 1e300;
  bool armed_identical = true;
  for (int r = 0; r < reps; ++r) {
    auto [s, csv] = timed_sweep({});
    armed_s = std::min(armed_s, s);
    armed_identical = armed_identical && csv == reference_csv;
  }

  // Traced: a span per point on top.
  double traced_s = 1e300;
  bool traced_identical = true;
  std::size_t span_events = 0;
  for (int r = 0; r < reps; ++r) {
    obs::SpanTracer tracer;
    explore::SweepHooks hooks;
    hooks.tracer = &tracer;
    auto [s, csv] = timed_sweep(hooks);
    traced_s = std::min(traced_s, s);
    traced_identical = traced_identical && csv == reference_csv;
    span_events = tracer.events().size();
  }

  // Direct per-task cost: run a large batch of small fixed-work tasks with
  // the machinery off vs fully on (metrics + spans) and take the per-task
  // delta. This isolates exactly what for_each adds around one job - two
  // clock reads, the local tally, the span record - without asking two
  // multi-second sweeps to differ by microseconds.
  const std::size_t micro_tasks = 200'000;
  volatile unsigned sink = 0;
  const auto micro_job = [&sink](std::size_t i) {
    unsigned acc = static_cast<unsigned>(i);
    for (int k = 0; k < 400; ++k) acc = acc * 1664525u + 1013904223u;
    sink = acc;
  };
  const auto timed_micro = [&](bool instrumented) {
    explore::Executor::instrumentation_enabled() = instrumented;
    explore::Executor exec(threads);
    obs::SpanTracer tracer;
    if (instrumented) exec.set_tracer(&tracer, "task");
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      exec.for_each(micro_tasks, micro_job);
      best = std::min(best, std::chrono::duration<double>(Clock::now() - start).count());
    }
    return best;
  };
  const double micro_off_s = timed_micro(false);
  const double micro_on_s = timed_micro(true);
  explore::Executor::instrumentation_enabled() = true;

  const double per_task_s =
      (micro_on_s - micro_off_s) / static_cast<double>(micro_tasks);
  const double point_s = off_s / points;
  // A negative A/B delta is noise; the cost cannot be below zero.
  const double overhead_direct = per_task_s > 0.0 ? per_task_s / point_s : 0.0;

  TextTable t({"configuration", "wall s", "points/s", "vs off", "csv"});
  t.add_row({"off", strf("%.3f", off_s), strf("%.1f", points / off_s), "1.00x", "reference"});
  t.add_row({"armed", strf("%.3f", armed_s), strf("%.1f", points / armed_s),
             strf("%.2fx", off_s / armed_s), armed_identical ? "identical" : "DIVERGED"});
  t.add_row({"traced", strf("%.3f", traced_s), strf("%.1f", points / traced_s),
             strf("%.2fx", off_s / traced_s), traced_identical ? "identical" : "DIVERGED"});
  t.print();

  std::puts("\nreading: armed is the production default (counters live, nobody scraping);");
  std::puts("traced adds one chrome span per point. Both must track the off baseline -");
  std::puts("the per-task cost is measured directly below and gated against point time.\n");
  std::printf("per-task instrumentation cost: %.2f us (micro batch of %zu tasks)\n",
              per_task_s * 1e6, micro_tasks);
  std::printf("per-point simulation time:     %.0f us\n", point_s * 1e6);
  std::printf("span events recorded:          %zu\n\n", span_events);

  std::printf("obs_overhead off_points_per_sec %.2f\n", points / off_s);
  std::printf("obs_overhead armed_points_per_sec %.2f\n", points / armed_s);
  std::printf("obs_overhead traced_points_per_sec %.2f\n", points / traced_s);
  std::printf("obs_overhead sweep_overhead_ab %.4f\n", armed_s / off_s - 1.0);
  std::printf("obs_overhead overhead_direct %.6f\n", overhead_direct);
  std::printf("obs_overhead tables_identical %d\n",
              (armed_identical && traced_identical) ? 1 : 0);
  return 0;
}
