#include "explore/executor.hpp"

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace smartnoc::explore {

namespace {

/// A mutex-guarded deque of job indices. Owner pops the front, thieves
/// take the back. Contention is negligible at simulation-sized jobs, so a
/// lock beats a lock-free Chase-Lev deque on simplicity with no measurable
/// cost.
class WorkDeque {
 public:
  void push_back_unlocked(std::size_t job) { jobs_.push_back(job); }

  bool pop_front(std::size_t& job) {
    std::lock_guard<std::mutex> lk(m_);
    if (jobs_.empty()) return false;
    job = jobs_.front();
    jobs_.pop_front();
    return true;
  }

  bool steal_back(std::size_t& job) {
    std::lock_guard<std::mutex> lk(m_);
    if (jobs_.empty()) return false;
    job = jobs_.back();
    jobs_.pop_back();
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return jobs_.size();
  }

 private:
  mutable std::mutex m_;
  std::deque<std::size_t> jobs_;
};

thread_local int t_current_worker = -1;
thread_local std::uint64_t t_current_call = 0;
std::atomic<std::uint64_t> g_calls{0};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The per-worker instrument set, resolved once per run on the main thread
/// (so the families land in the registry in a deterministic order, not in
/// whatever order the workers happen to start).
struct WorkerInstruments {
  obs::Counter* tasks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* busy = nullptr;
  obs::Counter* idle = nullptr;
  obs::Gauge* depth = nullptr;
};

std::vector<WorkerInstruments> register_worker_instruments(int workers) {
  auto& reg = obs::MetricsRegistry::global();
  std::vector<WorkerInstruments> out(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const std::string label = strf("worker=\"%d\"", w);
    WorkerInstruments& wi = out[static_cast<std::size_t>(w)];
    wi.tasks = &reg.counter("smartnoc_executor_tasks_total",
                            "Jobs executed by each executor worker", label);
    wi.steals = &reg.counter("smartnoc_executor_steals_total",
                             "Jobs stolen from another worker's deque", label);
    wi.busy = &reg.counter("smartnoc_executor_busy_seconds_total",
                           "Wall time spent inside jobs, per worker", label);
    wi.idle = &reg.counter("smartnoc_executor_idle_seconds_total",
                           "Wall time spent scanning/stealing, per worker", label);
    wi.depth = &reg.gauge("smartnoc_executor_queue_depth",
                          "Jobs remaining in each worker's own deque", label);
  }
  return out;
}

/// Local accumulators flushed once at worker exit: the hot path stays at one
/// clock read per job instead of four atomic RMWs.
struct WorkerTally {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  double busy_seconds = 0.0;

  void flush(const WorkerInstruments& wi, double loop_seconds) const {
    if (tasks > 0) wi.tasks->inc(static_cast<double>(tasks));
    if (steals > 0) wi.steals->inc(static_cast<double>(steals));
    wi.busy->inc(busy_seconds);
    const double idle = loop_seconds - busy_seconds;
    wi.idle->inc(idle > 0.0 ? idle : 0.0);
    wi.depth->set(0.0);
  }
};

}  // namespace

Executor::Executor(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
}

void Executor::set_tracer(obs::SpanTracer* tracer, std::string span_category) {
  tracer_ = tracer;
  span_category_ = std::move(span_category);
}

int Executor::current_worker() { return t_current_worker; }

std::uint64_t Executor::current_call() { return t_current_call; }

std::atomic<bool>& Executor::instrumentation_enabled() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

void Executor::for_each(std::size_t n, const std::function<void(std::size_t)>& job) const {
  if (n == 0) return;
  const int workers = threads_ < static_cast<int>(n) ? threads_ : static_cast<int>(n);
  const std::uint64_t call = g_calls.fetch_add(1, std::memory_order_relaxed) + 1;

  const bool instr = instrumentation_enabled().load(std::memory_order_relaxed);
  obs::SpanTracer* const tracer = instr ? tracer_ : nullptr;
  if (tracer) tracer->ensure_lanes(workers);
  std::vector<WorkerInstruments> instruments;
  if (instr) {
    instruments = register_worker_instruments(workers);
    obs::MetricsRegistry::global()
        .counter("smartnoc_executor_runs_total", "for_each batches executed")
        .inc();
  }

  std::vector<WorkDeque> deques(static_cast<std::size_t>(workers));
  // Round-robin seeding interleaves the matrix across workers, so
  // neighbouring (similarly expensive) points land on different threads.
  for (std::size_t i = 0; i < n; ++i) {
    deques[i % static_cast<std::size_t>(workers)].push_back_unlocked(i);
  }

  std::exception_ptr first_error;
  std::once_flag error_once;

  auto worker_loop = [&](int w) {
    const int outer_lane = t_current_worker;
    const std::uint64_t outer_call = t_current_call;
    t_current_worker = w;
    t_current_call = call;
    const auto loop_start = std::chrono::steady_clock::now();
    WorkerTally tally;
    WorkDeque& own = deques[static_cast<std::size_t>(w)];

    auto run_one = [&](std::size_t i) {
      if (!instr) {
        job(i);
        return;
      }
      const std::uint64_t t0 = tracer ? tracer->now_us() : 0;
      const auto b0 = std::chrono::steady_clock::now();
      job(i);
      tally.busy_seconds += seconds_since(b0);
      ++tally.tasks;
      if (tracer) {
        tracer->span(w, span_category_, strf("%s %zu", span_category_.c_str(), i), t0,
                     tracer->now_us());
      }
    };

    try {
      std::size_t i;
      while (true) {
        if (own.pop_front(i)) {
          if (instr) instruments[static_cast<std::size_t>(w)].depth->set(
              static_cast<double>(own.size()));
          run_one(i);
          continue;
        }
        // Own deque empty: steal from the victim with the most work left.
        // No new jobs are ever produced, so one failed scan == done.
        int victim = -1;
        std::size_t best = 0;
        for (int v = 0; v < workers; ++v) {
          if (v == w) continue;
          const std::size_t sz = deques[static_cast<std::size_t>(v)].size();
          if (sz > best) {
            best = sz;
            victim = v;
          }
        }
        if (victim < 0 || !deques[static_cast<std::size_t>(victim)].steal_back(i)) {
          if (victim < 0) break;  // everything empty: done
          continue;               // lost the race; rescan
        }
        ++tally.steals;
        if (tracer) tracer->instant(w, "steal", strf("steal from w%d", victim));
        run_one(i);
      }
    } catch (...) {
      std::call_once(error_once, [&] { first_error = std::current_exception(); });
    }
    if (instr) tally.flush(instruments[static_cast<std::size_t>(w)], seconds_since(loop_start));
    t_current_worker = outer_lane;
    t_current_call = outer_call;
  };

  // The calling thread is worker 0 (as in ShardRuntime, whose constructing
  // thread is participant 0) instead of idling in join: `workers` lanes
  // cost workers-1 spawns, and a single worker spawns nothing. worker_loop
  // catches every job exception, so the caller always reaches the joins.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(worker_loop, w);
  worker_loop(0);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace smartnoc::explore
