#include "serve/serve.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "serve/checked_lines.hpp"
#include "serve/point_key.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc::serve {

namespace fs = std::filesystem;

namespace {

/// The serving loop's registry instruments, resolved once per process.
struct ServeInstruments {
  obs::Counter& jobs_done;
  obs::Counter& jobs_failed;
  obs::Counter& points_computed;
  obs::Counter& points_served;
  obs::Counter& points_failed;
  obs::Counter& checkpoint_flushes;
  obs::Histogram& point_seconds;

  static ServeInstruments& get() {
    static ServeInstruments si = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ServeInstruments{
          reg.counter("smartnoc_serve_jobs_total", "Jobs finished, by final state",
                      "state=\"done\""),
          reg.counter("smartnoc_serve_jobs_total", "Jobs finished, by final state",
                      "state=\"failed\""),
          reg.counter("smartnoc_serve_points_computed_total",
                      "Points simulated (cache miss or uncached)"),
          reg.counter("smartnoc_serve_points_served_total", "Points served from the result cache"),
          reg.counter("smartnoc_serve_points_failed_total",
                      "Points whose run reported a failure (row kept, ok=false)"),
          reg.counter("smartnoc_serve_checkpoint_flushes_total",
                      "Progress records flushed to progress.srcl"),
          reg.histogram("smartnoc_serve_point_seconds",
                        "Wall time per point (lookup or simulation)"),
      };
    }();
    return si;
  }
};

/// Drops the live-status files (heartbeat.json + metrics.prom/.json) into
/// the queue root via tmp+rename, throttled to one write per interval.
/// Callers serialize writes (run_job calls under its checkpoint mutex).
class StatusWriter {
 public:
  StatusWriter(std::string dir, double interval_seconds, bool enabled)
      : dir_(std::move(dir)),
        interval_(interval_seconds),
        enabled_(enabled),
        start_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Fills pid/uptime on `hb` and writes if the interval elapsed.
  void maybe_write(obs::Heartbeat hb) {
    if (!enabled_) return;
    const auto now = std::chrono::steady_clock::now();
    if (wrote_once_ && std::chrono::duration<double>(now - last_).count() < interval_) return;
    write_now(std::move(hb));
  }

  void write_now(obs::Heartbeat hb) {
    if (!enabled_) return;
    hb.pid = static_cast<long long>(::getpid());
    hb.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    try {
      write_file_atomic((fs::path(dir_) / "heartbeat.json").string(), obs::to_json(hb));
      const auto& reg = obs::MetricsRegistry::global();
      write_file_atomic((fs::path(dir_) / "metrics.prom").string(), obs::to_prometheus(reg));
      write_file_atomic((fs::path(dir_) / "metrics.json").string(), obs::to_json(reg));
    } catch (const std::exception& e) {
      // Status files are best-effort; never take the job down over them.
      std::fprintf(stderr, "[serve] status write failed: %s\n", e.what());
    }
    wrote_once_ = true;
    last_ = std::chrono::steady_clock::now();
  }

 private:
  std::string dir_;
  double interval_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_{};
  bool wrote_once_ = false;
};

/// One thread's cache_hooks state. The executor runs a point's lookup and,
/// on a miss, its store back to back on one thread, so the lookup's key
/// waits for the store in one slot per thread. The cursor folds the points
/// of one spec within one executor call, the span its spec stays fixed.
struct Lane {
  std::uint64_t hooks = 0;     ///< the cache_hooks object whose lookup wrote the slot
  std::size_t index = 0;       ///< the point the slot's key belongs to
  std::optional<Hash128> key;  ///< empty: that point is not cacheable
  std::uint64_t call = 0;      ///< the executor call the cursor folds for
  std::optional<explore::PointCursor> cursor;
};

thread_local Lane t_lane;

}  // namespace

explore::SweepHooks cache_hooks(ResultCache& cache) {
  // The store reuses the lookup's key instead of deriving it again: the
  // derivation (resolve the scenario, hash its canonical bytes) is the whole
  // per-point cost of a cold cache. Each hooks object gets its own id, so a
  // store never takes a key another hooks object's lookup left behind.
  static std::atomic<std::uint64_t> next_id{0};
  const std::uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed) + 1;

  explore::SweepHooks hooks;
  hooks.lookup = [&cache, id](const explore::SweepSpec& spec, const explore::RunPoint& pt,
                              explore::RunRecord& rec) {
    Lane& lane = t_lane;
    lane.hooks = id;
    lane.index = pt.index;
    lane.key.reset();
    // Outside an executor call (call 0) every lookup resolves afresh.
    const std::uint64_t call = explore::Executor::current_call();
    if (call == 0 || lane.call != call || &lane.cursor->spec() != &spec) {
      lane.cursor.emplace(spec);
      lane.call = call;
    }
    const sim::ScenarioSpec* scenario = nullptr;
    try {
      scenario = &lane.cursor->resolve(pt);
      scenario->config.validate();
    } catch (const std::exception&) {
      return false;  // e.g. unreadable scenario file: let run_point report it
    }
    // A replay's key names the capture's path, not its bytes, so a
    // re-recorded capture would be served stale: replays always run.
    for (const sim::PhaseSpec& ph : scenario->phases) {
      if (telemetry::is_trace_workload_key(ph.workload)) return false;
    }
    lane.key = point_key(*scenario);
    // Telemetry/trace sidecar files only exist if the point actually runs,
    // so serving from the cache would silently skip them. The key is still
    // kept above: the computed record is stored for future plain runs.
    if (!spec.telemetry_prefix.empty() || !spec.trace_prefix.empty()) return false;
    auto hit = cache.lookup(*lane.key);
    if (!hit) return false;
    // hpc_max stays the cached value: it comes out of the session and is
    // determined by the key.
    rec = std::move(*hit);
    explore::stamp_point_echo(pt, *scenario, rec);
    return true;
  };
  hooks.store = [&cache, id](const explore::SweepSpec&, const explore::RunPoint& pt,
                             const explore::RunRecord& rec) {
    Lane& lane = t_lane;
    if (lane.hooks != id || lane.index != pt.index || !lane.key) return;  // uncacheable
    cache.insert(*lane.key, rec);
    lane.key.reset();
  };
  return hooks;
}

namespace {

explore::ResultTable run_job_impl(JobStore& store, const std::string& id, ResultCache* cache,
                                  const ServeOptions& opt, StatusWriter* status) {
  const JobInfo before = store.info(id);
  if (before.state == JobInfo::State::Done) {
    return explore::ResultTable::from_csv(read_file(before.dir + "/results.csv"));
  }

  ServeInstruments& si = ServeInstruments::get();
  const ResultCache::Counters cache_before =
      cache ? cache->counters() : ResultCache::Counters{};

  explore::SweepSpec spec;
  std::vector<explore::RunPoint> points;
  try {
    spec = explore::parse_sweep(store.sweep_text(id));
    points = spec.expand();
  } catch (const std::exception& e) {
    store.mark_failed(id, e.what());
    si.jobs_failed.inc();
    if (!opt.quiet) std::fprintf(stderr, "[serve] job %s FAILED: %s\n", id.c_str(), e.what());
    return explore::ResultTable();
  }

  std::uint64_t corrupt = 0;
  std::map<std::size_t, explore::RunRecord> checkpoint = store.load_checkpoint(id, &corrupt);
  explore::ResultTable table(points.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto it = checkpoint.find(i);
    if (it != checkpoint.end()) {
      table.set(i, it->second);
    } else {
      missing.push_back(i);
    }
  }

  if (!opt.quiet) {
    if (missing.size() < points.size()) {
      std::fprintf(stderr, "[serve] job %s: resuming, %zu/%zu points checkpointed, running %zu",
                   id.c_str(), points.size() - missing.size(), points.size(), missing.size());
      if (corrupt > 0) std::fprintf(stderr, " (%llu corrupt checkpoint lines dropped)",
                                    static_cast<unsigned long long>(corrupt));
      std::fputc('\n', stderr);
    } else {
      std::fprintf(stderr, "[serve] job %s: %zu points\n", id.c_str(), points.size());
    }
  }

  if (!missing.empty()) {
    const std::string progress_path = store.progress_file(id);
    const bool fresh = !fs::exists(progress_path);
    std::ofstream progress = open_checked_append(progress_path);
    if (!progress) throw ConfigError("cannot open checkpoint '" + progress_path + "'");
    if (fresh) progress << JobStore::kProgressHeader << '\n' << std::flush;

    std::unique_ptr<obs::SpanTracer> tracer;
    if (opt.trace_spans) tracer = std::make_unique<obs::SpanTracer>();

    const explore::SweepHooks hooks = cache ? cache_hooks(*cache) : explore::SweepHooks{};
    std::mutex mu;
    std::size_t completed = 0;
    const auto job_start = std::chrono::steady_clock::now();
    explore::Executor exec(opt.threads);
    if (tracer) exec.set_tracer(tracer.get(), "point");
    exec.for_each(missing.size(), [&](std::size_t k) {
      const std::size_t i = missing[k];
      explore::RunRecord rec;
      const auto p0 = std::chrono::steady_clock::now();
      const bool served = hooks.lookup && hooks.lookup(spec, points[i], rec);
      if (!served) {
        rec = explore::run_point(spec, points[i]);
        if (hooks.store) hooks.store(spec, points[i], rec);
      }
      si.point_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - p0).count());
      (served ? si.points_served : si.points_computed).inc();
      if (!rec.ok) si.points_failed.inc();
      {
        // Checkpoint before publishing: flushed per record, so a crash
        // after this line never re-runs the point.
        std::lock_guard<std::mutex> lock(mu);
        progress << format_checked_line(std::to_string(i), explore::record_to_json(rec))
                 << std::flush;
        si.checkpoint_flushes.inc();
        ++completed;
        const std::size_t done = points.size() - missing.size() + completed;
        if (!opt.quiet) {
          std::fprintf(stderr, "\r[serve] job %s: %zu/%zu", id.c_str(), done, points.size());
        }
        if (status != nullptr) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - job_start).count();
          obs::Heartbeat hb;
          hb.job = id;
          hb.points_done = done;
          hb.points_total = points.size();
          hb.points_per_sec = elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
          hb.eta_seconds = hb.points_per_sec > 0.0
                               ? static_cast<double>(points.size() - done) / hb.points_per_sec
                               : 0.0;
          status->maybe_write(std::move(hb));
        }
      }
      table.set(i, std::move(rec));
    });
    if (!opt.quiet) std::fputc('\n', stderr);

    if (tracer) {
      tracer->span(-1, "job", id, 0, tracer->now_us());
      try {
        write_file_atomic((fs::path(before.dir) / "spans.json").string(),
                          tracer->to_chrome_json("explorer serve"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[serve] span write failed: %s\n", e.what());
      }
    }
  }

  store.finalize(id, table);
  si.jobs_done.inc();
  if (!opt.quiet) {
    std::fprintf(stderr, "[serve] job %s: done\n", id.c_str());
    if (cache != nullptr) {
      // Same counters the metrics export - deltas over this job, so the
      // report and a scrape can't disagree.
      const ResultCache::Counters after = cache->counters();
      std::fprintf(stderr,
                   "[serve] job %s cache: %llu hits, %llu misses, %llu inserts\n", id.c_str(),
                   static_cast<unsigned long long>(after.hits - cache_before.hits),
                   static_cast<unsigned long long>(after.misses - cache_before.misses),
                   static_cast<unsigned long long>(after.inserts - cache_before.inserts));
    }
  }
  return table;
}

}  // namespace

explore::ResultTable run_job(JobStore& store, const std::string& id, ResultCache* cache,
                             const ServeOptions& opt) {
  StatusWriter status(store.root(), opt.heartbeat_seconds, opt.telemetry_files);
  return run_job_impl(store, id, cache, opt, &status);
}

int serve_loop(JobStore& store, ResultCache& cache, const ServeOptions& opt) {
  int failed = 0;
  if (!opt.quiet) {
    std::fprintf(stderr, "[serve] queue %s (cache: %zu entries)%s\n", store.root().c_str(),
                 cache.size(), opt.once ? ", single pass" : "");
  }
  StatusWriter status(store.root(), opt.heartbeat_seconds, opt.telemetry_files);
  for (;;) {
    bool worked = false;
    for (const std::string& id : store.job_ids()) {
      const JobInfo info = store.info(id);
      if (info.state == JobInfo::State::Done || info.state == JobInfo::State::Failed) continue;
      run_job_impl(store, id, &cache, opt, &status);
      if (store.info(id).state == JobInfo::State::Failed) ++failed;
      worked = true;
    }
    // Idle (or end-of-pass) heartbeat: pid and uptime stay fresh for
    // `status --watch` even when no job is running.
    status.write_now(obs::Heartbeat{});
    if (opt.once) break;
    if (!worked) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(opt.poll_seconds * 1000)));
    }
  }
  return failed;
}

}  // namespace smartnoc::serve
