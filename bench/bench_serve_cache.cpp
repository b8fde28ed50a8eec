// Serving-cache economics on a 32-point sweep: what a warm cache saves
// (every point served from disk instead of simulated) and what the cache
// machinery costs when it cannot help (a cold sweep pays one key hash +
// lookup miss + insert per point on top of the simulation).
//
// Three configurations, best-of-reps each (the overhead comparison needs
// each side's noise floor, not its scheduler-jittered median):
//   nocache  - plain run_sweep, the baseline
//   cold     - cache hooks against a fresh directory every rep
//   warm     - cache hooks against the populated directory
//
// The trailing `serve_cache <metric> <value>` lines are machine-readable;
// CI gates warm_speedup >= 10x and cold overhead <= 2% from them.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/table.hpp"
#include "explore/explore.hpp"
#include "serve/point_key.hpp"
#include "serve/result_cache.hpp"
#include "serve/serve.hpp"

int main() {
  using namespace smartnoc;
  using Clock = std::chrono::steady_clock;
  namespace fs = std::filesystem;

  // Long enough points that the per-point cache cost (key hash + miss +
  // insert + flush, microseconds) is measured against realistic simulation
  // work; with millisecond points the ratio drowns in scheduler noise.
  const explore::SweepSpec spec = explore::parse_sweep(
      "mesh = 4x4, 6x6\n"
      "injection = 0.01, 0.02, 0.04, 0.08\n"
      "design = mesh, smart\n"
      "pattern = transpose, neighbor\n"
      "warmup = 1000\n"
      "measure = 20000\n"
      "drain_timeout = 50000\n");

  const fs::path root = fs::temp_directory_path() / "smartnoc_bench_cache";
  fs::remove_all(root);
  const int threads = 4;
  const int reps = 3;
  const auto points = static_cast<double>(spec.size());

  std::printf("=== Serving cache: %zu-point sweep, %d threads, best of %d reps ===\n\n",
              spec.size(), threads, reps);

  const auto timed_sweep = [&](const explore::SweepHooks& hooks) {
    const auto start = Clock::now();
    const explore::ResultTable table = explore::run_sweep(spec, threads, {}, hooks);
    return std::pair<double, std::string>(
        std::chrono::duration<double>(Clock::now() - start).count(), table.to_csv());
  };

  // Baseline: no cache in the loop at all.
  double nocache_s = 1e300;
  std::string reference_csv;
  for (int r = 0; r < reps; ++r) {
    auto [s, csv] = timed_sweep({});
    nocache_s = std::min(nocache_s, s);
    reference_csv = std::move(csv);
  }

  // Cold: hashing + miss + insert on every point, fresh directory per rep.
  double cold_s = 1e300;
  bool cold_identical = true;
  for (int r = 0; r < reps; ++r) {
    const fs::path dir = root / ("cold_" + std::to_string(r));
    serve::ResultCache cache(dir.string());
    auto [s, csv] = timed_sweep(serve::cache_hooks(cache));
    cold_s = std::min(cold_s, s);
    cold_identical = cold_identical && csv == reference_csv;
  }

  // Warm: every point served from the populated cache.
  const fs::path warm_dir = root / "warm";
  {
    serve::ResultCache cache(warm_dir.string());
    explore::run_sweep(spec, threads, {}, serve::cache_hooks(cache));
  }
  double warm_s = 1e300;
  bool warm_identical = true;
  for (int r = 0; r < reps; ++r) {
    serve::ResultCache cache(warm_dir.string());
    auto [s, csv] = timed_sweep(serve::cache_hooks(cache));
    warm_s = std::min(warm_s, s);
    warm_identical = warm_identical && csv == reference_csv;
  }
  fs::remove_all(root);

  // Direct per-point hook cost: the cold sweep's cache tax is exactly one
  // key derivation (resolve scenario + canonical bytes + hash) plus one
  // miss + insert (including the durability flush) per point. End-to-end
  // A/B sweep times differ by less than scheduler noise, so the gate metric
  // is measured directly: hook microseconds over many reps, divided by the
  // baseline per-point simulation time.
  const std::vector<explore::RunPoint> pts = spec.expand();
  const int hook_reps = 20;
  double key_s = 0.0, insert_s = 0.0;
  {
    const auto start = Clock::now();
    for (int r = 0; r < hook_reps; ++r) {
      for (const explore::RunPoint& pt : pts) {
        (void)serve::point_key(explore::make_point_scenario(spec, pt));
      }
    }
    key_s = std::chrono::duration<double>(Clock::now() - start).count() /
            (hook_reps * points);
  }
  {
    explore::RunRecord rec;
    rec.ok = true;
    const auto start = Clock::now();
    for (int r = 0; r < hook_reps; ++r) {
      const fs::path dir = root / ("hook_" + std::to_string(r));
      serve::ResultCache cache(dir.string());
      for (const explore::RunPoint& pt : pts) {
        const Hash128 key = serve::point_key(explore::make_point_scenario(spec, pt));
        (void)cache.lookup(key);  // miss
        rec.index = pt.index;
        cache.insert(key, rec);
      }
    }
    // This loop derives the key a second time (already counted in key_s),
    // so subtract it to isolate miss + insert + flush.
    insert_s = std::chrono::duration<double>(Clock::now() - start).count() /
                   (hook_reps * points) -
               key_s;
  }
  fs::remove_all(root);
  const double point_s = nocache_s / points;
  const double direct_overhead = (key_s + insert_s) / point_s;

  TextTable t({"configuration", "wall s", "points/s", "vs nocache", "csv"});
  t.add_row({"nocache", strf("%.3f", nocache_s), strf("%.1f", points / nocache_s), "1.00x",
             "reference"});
  t.add_row({"cold cache", strf("%.3f", cold_s), strf("%.1f", points / cold_s),
             strf("%.2fx", nocache_s / cold_s), cold_identical ? "identical" : "DIVERGED"});
  t.add_row({"warm cache", strf("%.3f", warm_s), strf("%.1f", points / warm_s),
             strf("%.2fx", nocache_s / warm_s), warm_identical ? "identical" : "DIVERGED"});
  t.print();

  const double overhead = cold_s / nocache_s - 1.0;
  const double speedup = nocache_s / warm_s;
  std::puts("\nreading: warm serves every point from disk (the speedup is bounded only by");
  std::puts("load + deserialize); cold pays one key hash + miss + insert per point, which");
  std::puts("must stay in the noise next to the simulations it fronts.\n");
  std::printf("per-point cost: simulate %.0f us | derive key %.1f us | miss+insert %.1f us\n\n",
              point_s * 1e6, key_s * 1e6, insert_s * 1e6);
  std::printf("serve_cache cold_points_per_sec %.2f\n", points / cold_s);
  std::printf("serve_cache warm_points_per_sec %.2f\n", points / warm_s);
  std::printf("serve_cache warm_speedup %.2f\n", speedup);
  std::printf("serve_cache cold_overhead_vs_nocache %.4f\n", overhead);
  std::printf("serve_cache cold_overhead_direct %.4f\n", direct_overhead);
  std::printf("serve_cache tables_identical %d\n", (cold_identical && warm_identical) ? 1 : 0);
  return 0;
}
