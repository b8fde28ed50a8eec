// Sweep demo: the exploration subsystem end to end, in code.
//
//   1. declare a SweepSpec (the same 64-point matrix as examples/demo.sweep),
//   2. run it on all cores,
//   3. print the summary with the Pareto frontier starred,
//   4. export CSV/JSON next to the binary.
//
// Build & run:  cmake -B build -S . && cmake --build build -j
//               ./build/sweep_demo
//
// The same sweep from the CLI:  ./build/explorer examples/demo.sweep
#include <cstdio>
#include <fstream>

#include "explore/explore.hpp"

int main() {
  using namespace smartnoc;

  // A sweep is a base scenario plus `key = values` axes over it - the
  // sweep-file grammar, which parse_sweep reads from a string as well.
  const explore::SweepSpec spec = explore::parse_sweep(
      "mesh = 2x2, 4x4, 6x6, 8x8\n"
      "injection = 0.01, 0.02, 0.04, 0.08\n"
      "design = mesh, smart\n"
      "pattern = transpose, uniform\n"
      "warmup = 500\n"
      "measure = 5000\n");

  std::printf("running a %zu-point sweep (4 meshes x 4 injection scales x 2 designs x 2 "
              "patterns)...\n\n",
              spec.size());
  const explore::ResultTable table = explore::run_sweep(spec, /*threads=*/0);
  std::fputs(table.summary().c_str(), stdout);

  std::ofstream("sweep_demo.csv") << table.to_csv();
  std::ofstream("sweep_demo.json") << table.to_json();
  std::puts("\nwrote sweep_demo.csv and sweep_demo.json");

  // The Pareto query picks the configurations worth looking at: nothing
  // else is better on latency, power AND area at once.
  std::puts("\nPareto-optimal configurations (latency/power/area):");
  for (std::size_t i : table.pareto_frontier()) {
    const explore::RunRecord& r = table.at(i);
    std::printf("  #%llu %dx%d %s %s inj=%.3g: %.2f cycles, %.2f mW, %.3f mm2\n",
                static_cast<unsigned long long>(r.index), r.width, r.height, r.design.c_str(),
                r.workload.c_str(), r.injection, r.avg_net_latency, r.power_mw, r.area_mm2);
  }
  return 0;
}
