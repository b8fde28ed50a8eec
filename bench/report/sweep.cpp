// The sweep workloads: 288 design points through explore::parse_sweep and
// explore::run_sweep on two workers, served through serve::cache_hooks over
// a serve::ResultCache.
//
//   sweep_cold  every pass starts from an empty cache directory, so each
//               point is simulated and its record written (cache misses).
//   sweep_warm  the cache is filled once before measuring; every pass
//               reopens it and serves all points from it (cache hits).
//
// A pass is one closed-loop request: open the cache, run both sweeps,
// return the tables. Passes run back to back until --seconds have passed.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "explore/explore.hpp"
#include "report.hpp"
#include "serve/serve.hpp"

namespace bench_report {

namespace {

using namespace smartnoc;
namespace fs = std::filesystem;

constexpr int kWorkers = 2;
constexpr Cycle kWarmupCycles = 2'000;
constexpr Cycle kMeasureCycles = 20'000;

// Synthetic traffic on three mesh sizes, and the paper's eight SoC apps on
// 4x4 (Fig. 10a style), 144 points each. Left out on purpose: hotspot
// (saturates at 0.02 on 8x8, so a point would time the drain timeout) and
// dedicated on 8x8 (aborts the process: arbiter wider than kMaxArbInputs).
constexpr const char* kSyntheticAxes =
    "mesh = 4x4, 6x6, 8x8\n"
    "flit_bits = 32, 64\n"
    "injection = 0.01, 0.02, 0.03\n"
    "pattern = uniform, transpose, bit-complement, neighbor\n"
    "design = mesh, smart\n";
constexpr const char* kAppAxes =
    "mesh = 4x4\n"
    "flit_bits = 32, 64\n"
    "injection = 0.5, 1, 2\n"
    "app = h264, mms_dec, mms_enc, mms_mp3, mwd, vopd, wlan, pip\n"
    "design = mesh, smart, dedicated\n";

std::vector<explore::SweepSpec> parse_specs(std::uint64_t seed) {
  const std::string common = "seed = " + std::to_string(seed) + "\nwarmup = " +
                             std::to_string(kWarmupCycles) + "\nmeasure = " +
                             std::to_string(kMeasureCycles) + "\n";
  return {explore::parse_sweep(kSyntheticAxes + common), explore::parse_sweep(kAppAxes + common)};
}

/// Hook timings of one point, from the wrapped lookup and store.
struct PointTrace {
  Clock::time_point lookup0, lookup1, store0, store1;
  bool hit = false;
  bool stored = false;
  int worker = 0;

  Clock::time_point end() const { return stored ? store1 : lookup1; }
};

/// The points of one run_sweep call, keyed by matrix index.
struct CallTrace {
  std::mutex mu;
  std::map<std::size_t, PointTrace> points;
  Clock::time_point start, end;
};

/// Wraps the cache hooks so every lookup and store is timed. The wrapped
/// calls are the ones cache_hooks returned; only the clock reads are added.
explore::SweepHooks timed_hooks(const explore::SweepHooks& inner, CallTrace& tr) {
  explore::SweepHooks h;
  h.lookup = [inner, &tr](const explore::SweepSpec& spec, const explore::RunPoint& pt,
                          explore::RunRecord& rec) {
    const auto t0 = Clock::now();
    const bool hit = inner.lookup(spec, pt, rec);
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(tr.mu);
    PointTrace& p = tr.points[pt.index];
    p.lookup0 = t0;
    p.lookup1 = t1;
    p.hit = hit;
    p.worker = explore::Executor::current_worker();
    return hit;
  };
  h.store = [inner, &tr](const explore::SweepSpec& spec, const explore::RunPoint& pt,
                         const explore::RunRecord& rec) {
    const auto t0 = Clock::now();
    inner.store(spec, pt, rec);
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(tr.mu);
    PointTrace& p = tr.points[pt.index];
    p.store0 = t0;
    p.store1 = t1;
    p.stored = true;
  };
  return h;
}

struct Pass {
  Clock::time_point start, end;
  double open_s = 0.0;
  std::vector<explore::ResultTable> tables;
  std::uint64_t hits = 0;
  double cache_bytes = 0.0;
  std::vector<std::unique_ptr<CallTrace>> calls;  ///< traced passes only
};

Pass run_pass(const std::vector<explore::SweepSpec>& specs, const std::string& cache_dir,
              bool traced) {
  Pass p;
  p.start = Clock::now();
  serve::ResultCache cache(cache_dir);
  p.open_s = seconds_between(p.start, Clock::now());
  const explore::SweepHooks hooks = serve::cache_hooks(cache);
  for (const explore::SweepSpec& spec : specs) {
    if (traced) {
      auto tr = std::make_unique<CallTrace>();
      tr->start = Clock::now();
      p.tables.push_back(explore::run_sweep(spec, kWorkers, {}, timed_hooks(hooks, *tr)));
      tr->end = Clock::now();
      p.calls.push_back(std::move(tr));
    } else {
      p.tables.push_back(explore::run_sweep(spec, kWorkers, {}, hooks));
    }
  }
  p.end = Clock::now();
  p.hits = cache.counters().hits;
  std::error_code ec;
  p.cache_bytes = static_cast<double>(fs::file_size(cache.file(), ec));
  return p;
}

std::size_t point_count(const std::vector<explore::ResultTable>& tables) {
  std::size_t n = 0;
  for (const auto& t : tables) n += t.size();
  return n;
}

/// Rows that failed or differ from the reference pass.
std::size_t bad_rows(const Pass& p, const std::vector<explore::ResultTable>& ref) {
  std::size_t bad = 0;
  for (std::size_t t = 0; t < p.tables.size(); ++t) {
    for (std::size_t i = 0; i < p.tables[t].size(); ++i) {
      const explore::RunRecord& r = p.tables[t].at(i);
      if (!r.ok || t >= ref.size() || i >= ref[t].size() || !(r == ref[t].at(i))) ++bad;
    }
  }
  return bad;
}

std::string csv_digest(const std::vector<explore::ResultTable>& tables) {
  std::string csv;
  for (const auto& t : tables) csv += t.to_csv();
  char buf[64];
  std::snprintf(buf, sizeof buf, "csv_fnv=%016" PRIx64 " rows=%zu", fnv1a64(csv),
                point_count(tables));
  return buf;
}

/// Per-layer tallies over the traced passes.
struct LayerTally {
  std::vector<double> point_ms, lookup_us, store_us, open_ms, tail_s;
  double point_busy_s = 0.0, worker_s = 0.0;
  std::uint64_t lookups = 0, hits = 0;

  void add_pass(const Pass& p, SpanLog& spans) {
    const std::uint64_t pass_span = spans.open();
    open_ms.push_back(1e3 * p.open_s);
    double tail = 0.0;
    for (const auto& call : p.calls) {
      Clock::time_point last_start = call->start;
      for (const auto& [i, pt] : call->points) last_start = std::max(last_start, pt.lookup0);
      // Fewer points than workers are in flight from the first point end
      // after the last point start until the call returns.
      Clock::time_point tail_start = call->end;
      for (const auto& [i, pt] : call->points) {
        if (pt.end() >= last_start) tail_start = std::min(tail_start, pt.end());
      }
      tail += seconds_between(tail_start, call->end);
      const int workers = std::min<int>(kWorkers, static_cast<int>(call->points.size()));
      worker_s += workers * seconds_between(call->start, call->end);
      for (const auto& [i, pt] : call->points) {
        point_busy_s += seconds_between(pt.lookup0, pt.end());
        point_ms.push_back(1e3 * seconds_between(pt.lookup0, pt.end()));
        lookup_us.push_back(1e6 * seconds_between(pt.lookup0, pt.lookup1));
        ++lookups;
        if (pt.hit) ++hits;
        if (pt.stored) store_us.push_back(1e6 * seconds_between(pt.store0, pt.store1));
        const int lane = pt.worker + 1;
        const std::uint64_t ps =
            spans.add("point " + std::to_string(i), "explore", pt.lookup0, pt.end(), pass_span, lane);
        spans.add(pt.hit ? "cache hit" : "cache lookup", "serve", pt.lookup0, pt.lookup1, ps, lane);
        if (pt.stored) spans.add("cache store", "serve", pt.store0, pt.store1, ps, lane);
      }
    }
    tail_s.push_back(tail);
    spans.close(pass_span, "pass", "explore", p.start, p.end);
  }
};

}  // namespace

bool is_sweep_workload(const std::string& name) {
  return name == "sweep_cold" || name == "sweep_warm";
}

RunReport run_sweep_workload(const RunOptions& opt) {
  const bool warm = opt.workload == "sweep_warm";
  const std::string cache_dir = opt.work_dir + "/" + opt.workload + "_cache";
  RunReport rep;
  SpanLog spans;
  fs::remove_all(cache_dir);

  // The warm workload's cache is filled by one cold pass before anything is
  // timed; that pass is the reference its warm passes must reproduce.
  std::vector<explore::ResultTable> ref;
  if (warm) {
    Pass fill = run_pass(parse_specs(opt.seed), cache_dir, false);
    ref = std::move(fill.tables);
  }

  // --- Set-up: parse both sweep files and open the cache --------------------
  SetupTimer setup;
  std::vector<explore::SweepSpec> specs;
  const auto timed_setup = [&] {
    if (!warm) fs::remove_all(cache_dir);
    const auto t0 = Clock::now();
    specs = parse_specs(opt.seed);
    serve::ResultCache cache(cache_dir);
    const auto t1 = Clock::now();
    if (opt.trace) spans.add("setup", "setup", t0, t1);
    return seconds_between(t0, t1);
  };
  malloc_trim(0);  // start from a clean heap, whatever the fill pass left
  setup.round(timed_setup);

  // --- Measured passes ------------------------------------------------------
  // With --trace 1, odd passes time every hook call and even passes run
  // bare, so the tracing overhead is measured under the same conditions.
  const int min_passes = warm ? 20 : 4;
  std::vector<double> bare_s, traced_s;
  LayerTally layer;
  std::size_t points = 0, bad = 0;
  double cache_bytes = 0.0;
  const auto m0 = Clock::now();
  for (int k = 0; k < min_passes || seconds_between(m0, Clock::now()) < opt.seconds; ++k) {
    if (setup.due()) setup.round(timed_setup);
    const bool traced = opt.trace && k % 2 == 1;
    if (!warm) fs::remove_all(cache_dir);
    Pass p = run_pass(specs, cache_dir, traced);
    (traced ? traced_s : bare_s).push_back(seconds_between(p.start, p.end));
    if (traced) layer.add_pass(p, spans);
    const std::size_t n = point_count(p.tables);
    points += n;
    if (ref.empty()) ref = p.tables;  // the first cold pass is the reference
    bad += bad_rows(p, ref);
    if (warm && p.hits != n) rep.fail("warm pass simulated points instead of serving them");
    cache_bytes = p.cache_bytes;
  }
  fs::remove_all(cache_dir);

  rep.attempted = std::max<std::uint64_t>(points, 1);
  rep.failed = bad;
  if (bad) rep.fail(std::to_string(bad) + " rows failed or differ from the reference pass");
  const std::string digest = csv_digest(ref);
  if (opt.seed == 1) {
    const std::string want = expected_digest(opt.expected_file, opt.workload);
    if (want != digest) {
      rep.fail("result CSV differs from the pinned seed-1 digest; this run: " + opt.workload +
               " " + digest);
    }
  }
  if (!rep.correct) rep.failed = rep.attempted;

  // --- Metrics --------------------------------------------------------------
  const std::size_t per_pass = point_count(ref);
  double latency_sum = 0.0;
  for (const auto& t : ref) {
    for (const auto& r : t.rows()) latency_sum += r.avg_net_latency;
  }
  const auto cycles_per_pass = static_cast<double>(per_pass * (kWarmupCycles + kMeasureCycles));
  rep.add("sim_cycles_per_s", cycles_per_pass / quantile(bare_s, kRateQuantile), "1/s",
          bare_s.size());
  rep.add("setup_s", median(setup.samples()), "s", setup.samples().size());
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("sim_latency_cycles", latency_sum / static_cast<double>(per_pass), "cycles", per_pass);

  if (opt.trace) {
    rep.add("explore.points", static_cast<double>(per_pass), "count");
    rep.add("explore.point_ms_p50", median(layer.point_ms), "ms", layer.point_ms.size());
    rep.add("explore.point_ms_p95", quantile(layer.point_ms, 0.95), "ms", layer.point_ms.size());
    rep.add("explore.busy_frac", layer.point_busy_s / layer.worker_s, "1", layer.point_ms.size());
    rep.add("explore.tail_s", median(layer.tail_s), "s", layer.tail_s.size());
    rep.add("explore.failed_points", static_cast<double>(bad), "count");
    rep.add("serve.lookup_us_p50", median(layer.lookup_us), "us", layer.lookup_us.size());
    rep.add("serve.lookup_us_p95", quantile(layer.lookup_us, 0.95), "us", layer.lookup_us.size());
    if (!layer.store_us.empty()) {
      rep.add("serve.store_us_p50", median(layer.store_us), "us", layer.store_us.size());
      rep.add("serve.store_us_p95", quantile(layer.store_us, 0.95), "us", layer.store_us.size());
    }
    rep.add("serve.load_ms", median(layer.open_ms), "ms", layer.open_ms.size());
    rep.add("serve.hit_frac",
            static_cast<double>(layer.hits) / static_cast<double>(std::max<std::uint64_t>(layer.lookups, 1)),
            "1", layer.lookups);
    rep.add("serve.cache_bytes", cache_bytes, "bytes");
    rep.add("trace.overhead_frac", median(traced_s) / median(bare_s) - 1.0, "1", traced_s.size());
    spans.write_chrome_json(opt.work_dir + "/" + opt.workload + "_spans.json");
  }
  return rep;
}

}  // namespace bench_report
