#include "explore/executor.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace smartnoc::explore {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// A mutex-guarded deque of job indices. Owner pops the front, thieves
/// take the back. Contention is negligible at simulation-sized jobs, so a
/// lock beats a lock-free Chase-Lev deque on simplicity with no measurable
/// cost.
class WorkDeque {
 public:
  void push_back_unlocked(std::size_t job) { jobs_.push_back(job); }

  /// Pops the front job; `left` receives the number of jobs still queued.
  bool pop_front(std::size_t& job, std::size_t& left) {
    std::lock_guard<std::mutex> lk(m_);
    if (jobs_.empty()) return false;
    job = jobs_.front();
    jobs_.pop_front();
    left = jobs_.size();
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

double seconds_between(SteadyClock::time_point t0, SteadyClock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One lane's instrument set.
struct WorkerInstruments {
  obs::Counter* tasks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* busy = nullptr;
  obs::Counter* idle = nullptr;
  obs::Gauge* depth = nullptr;
};

/// The instruments of lanes [0, workers). Each lane's are registered once,
/// on the first calling thread that needs it and in lane order, so the
/// families land in the registry in a deterministic order, not in whatever
/// order the workers happen to start.
std::vector<WorkerInstruments> lane_instruments(int workers) {
  static std::mutex mu;
  static std::vector<WorkerInstruments> lanes;
  std::lock_guard<std::mutex> lk(mu);
  auto& reg = obs::MetricsRegistry::global();
  for (int w = static_cast<int>(lanes.size()); w < workers; ++w) {
    const std::string label = strf("worker=\"%d\"", w);
    WorkerInstruments& wi = lanes.emplace_back();
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
  return {lanes.begin(), lanes.begin() + workers};
}

obs::Counter& runs_counter() {
  static obs::Counter& runs = obs::MetricsRegistry::global().counter(
      "smartnoc_executor_runs_total", "for_each batches executed");
  return runs;
}

/// Local accumulators flushed once at lane exit: the hot path stays at one
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

/// The shared state of one for_each call; each lane runs run_lane(w).
struct Call {
  Call(const std::function<void(std::size_t)>& job, int workers, obs::SpanTracer* tracer,
       const std::string& span_category)
      : job(job),
        id(g_calls.fetch_add(1, std::memory_order_relaxed) + 1),
        workers(workers),
        tracer(tracer),
        span_category(span_category),
        deques(static_cast<std::size_t>(workers)) {}

  const std::function<void(std::size_t)>& job;
  const std::uint64_t id;
  const int workers;
  obs::SpanTracer* const tracer;
  const std::string& span_category;
  std::vector<WorkerInstruments> instruments;  ///< empty: instrumentation off
  std::vector<WorkDeque> deques;
  std::exception_ptr first_error;
  std::once_flag error_once;
  int pending = 0;                ///< lanes 1.. still running; guarded by LanePool::mu_
  std::condition_variable done;   ///< signalled when pending reaches 0

  void run_lane(int w);
};

void Call::run_lane(int w) {
  const int outer_lane = t_current_worker;
  const std::uint64_t outer_call = t_current_call;
  t_current_worker = w;
  t_current_call = id;
  const WorkerInstruments* const wi =
      instruments.empty() ? nullptr : &instruments[static_cast<std::size_t>(w)];
  const auto loop_start = wi ? SteadyClock::now() : SteadyClock::time_point{};
  // Busy time runs from `mark` (the previous job's end, or the end of a
  // steal scan) to the job's end: one clock read per job.
  auto mark = loop_start;
  WorkerTally tally;
  WorkDeque& own = deques[static_cast<std::size_t>(w)];

  auto run_one = [&](std::size_t i) {
    if (!wi) {
      job(i);
      return;
    }
    const std::uint64_t t0 = tracer ? tracer->now_us() : 0;
    job(i);
    const auto now = SteadyClock::now();
    tally.busy_seconds += seconds_between(mark, now);
    mark = now;
    ++tally.tasks;
    if (tracer) {
      tracer->span(w, span_category, strf("%s %zu", span_category.c_str(), i), t0,
                   tracer->now_us());
    }
  };

  try {
    std::size_t i, left;
    while (true) {
      if (own.pop_front(i, left)) {
        if (wi) wi->depth->set(static_cast<double>(left));
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
      if (wi) mark = SteadyClock::now();
      if (tracer) tracer->instant(w, "steal", strf("steal from w%d", victim));
      run_one(i);
    }
  } catch (...) {
    std::call_once(error_once, [&] { first_error = std::current_exception(); });
  }
  if (wi) tally.flush(*wi, seconds_between(loop_start, SteadyClock::now()));
  t_current_worker = outer_lane;
  t_current_call = outer_call;
}

/// The process-wide threads that run lanes 1..w-1 of for_each calls. A
/// thread parks on its own condition variable between lanes (it never
/// spins: a cold sweep's simulations and a sharded point's threads need the
/// CPUs), and a call takes parked threads before it spawns any. A busy
/// thread is never waited for, so a for_each inside a job cannot deadlock.
class LanePool {
 public:
  static LanePool& get() {
    static LanePool pool;
    return pool;
  }

  LanePool() = default;
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Runs at exit, when every for_each has returned and all threads are
  /// parked: wakes them to return, and joins them.
  ~LanePool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
      for (const auto& p : all_) p->wake.notify_one();
    }
    for (const auto& p : all_) p->thread.join();
  }

  /// Runs lanes 1.. of `call` on parked threads and lane 0 on the calling
  /// thread, and returns once every lane has finished.
  void run(Call& call) {
    const std::size_t helpers = static_cast<std::size_t>(call.workers - 1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Spawn before assigning anything, so a failed spawn leaves no lane
      // waiting on a thread that does not exist.
      while (idle_.size() < helpers) {
        auto p = std::make_unique<Parked>();
        p->thread = std::thread(&LanePool::park_loop, this, p.get());
        idle_.push_back(all_.emplace_back(std::move(p)).get());
      }
      call.pending = static_cast<int>(helpers);
      for (int w = 1; w < call.workers; ++w) {
        Parked* const p = idle_.back();
        idle_.pop_back();
        p->call = &call;
        p->lane = w;
        p->wake.notify_one();
      }
    }
    call.run_lane(0);
    std::unique_lock<std::mutex> lk(mu_);
    call.done.wait(lk, [&] { return call.pending == 0; });
  }

 private:
  struct Parked {
    std::condition_variable wake;
    Call* call = nullptr;  ///< the lane to run; nullptr while parked
    int lane = 0;
    std::thread thread;
  };

  void park_loop(Parked* self) {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      self->wake.wait(lk, [&] { return self->call != nullptr || stopping_; });
      if (self->call == nullptr) return;
      Call* const call = self->call;
      lk.unlock();
      call->run_lane(self->lane);
      lk.lock();
      self->call = nullptr;
      idle_.push_back(self);
      // Signalled under the lock: the caller cannot see pending == 0, and
      // free `call`, before this thread is back in wait and has let go.
      if (--call->pending == 0) call->done.notify_one();
    }
  }

  std::mutex mu_;  // guards all of the below, each Parked's call and lane, and Call::pending
  bool stopping_ = false;
  std::vector<Parked*> idle_;  ///< a stack: the threads of the last call go first
  std::vector<std::unique_ptr<Parked>> all_;
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
  const bool instr = instrumentation_enabled().load(std::memory_order_relaxed);
  Call call(job, workers, instr ? tracer_ : nullptr, span_category_);
  if (call.tracer) call.tracer->ensure_lanes(workers);
  if (instr) {
    call.instruments = lane_instruments(workers);
    runs_counter().inc();
  }

  // Round-robin seeding interleaves the matrix across workers, so
  // neighbouring (similarly expensive) points land on different threads.
  for (std::size_t i = 0; i < n; ++i) {
    call.deques[i % static_cast<std::size_t>(workers)].push_back_unlocked(i);
  }

  // The calling thread is lane 0 (as in ShardRuntime, whose constructing
  // thread is participant 0) instead of idling while the others run, and a
  // single worker involves no other thread. run_lane catches every job
  // exception, so every lane finishes before the first is rethrown here.
  LanePool::get().run(call);
  if (call.first_error) std::rethrow_exception(call.first_error);
}

}  // namespace smartnoc::explore
