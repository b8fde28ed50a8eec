// Exploration engine throughput: simulation runs per second vs. worker
// thread count, on a fixed 64-point sweep (4 mesh sizes x 4 injection
// scales x 2 designs x 2 patterns - the acceptance-grade matrix).
//
// Jobs are embarrassingly parallel (no shared mutable state), so scaling
// is bounded by cores and by job-size imbalance; work stealing keeps the
// tail short when 8x8 uniform-random points cost ~50x the 2x2 neighbor
// ones. The run also cross-checks determinism: every thread count must
// export the identical CSV.
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/table.hpp"
#include "explore/explore.hpp"

int main() {
  using namespace smartnoc;
  using Clock = std::chrono::steady_clock;

  const explore::SweepSpec spec = explore::parse_sweep(
      "mesh = 2x2, 4x4, 6x6, 8x8\n"
      "injection = 0.01, 0.02, 0.04, 0.08\n"
      "design = mesh, smart\n"
      "pattern = transpose, neighbor\n"
      "warmup = 500\n"
      "measure = 5000\n"
      "drain_timeout = 50000\n");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Exploration throughput: %zu-point sweep, %u hardware threads ===\n\n",
              spec.size(), hw);

  TextTable t({"threads", "wall s", "runs/s", "speedup", "ok", "csv"});
  double base_s = 0.0;
  std::string reference_csv;
  for (int threads : {1, 2, 4, 8}) {
    if (threads > 1 && static_cast<unsigned>(threads) > hw * 2) break;
    const auto start = Clock::now();
    const explore::ResultTable table = explore::run_sweep(spec, threads);
    const double s = std::chrono::duration<double>(Clock::now() - start).count();
    if (threads == 1) {
      base_s = s;
      reference_csv = table.to_csv();
    }
    const bool identical = table.to_csv() == reference_csv;
    t.add_row({strf("%d", threads), strf("%.2f", s),
               strf("%.1f", static_cast<double>(table.size()) / s),
               strf("%.2fx", base_s / s), strf("%zu/%zu", table.ok_count(), table.size()),
               identical ? "identical" : "DIVERGED"});
  }
  t.print();
  std::puts("\nreading: runs/s should scale with cores until the matrix tail (the few");
  std::puts("8x8 points) dominates; 'csv' pins that thread count never changes results.");
  return 0;
}
