// Exploration subsystem: grid expansion, executor determinism (1-thread vs
// N-thread sweeps must serialize byte-identically), serialization
// round-trips, the Pareto query and the drain-timeout contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "explore/explore.hpp"
#include "serve/point_key.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using explore::ResultTable;
using explore::RunPoint;
using explore::RunRecord;
using explore::SweepSpec;

SweepSpec tiny_spec() {
  // Small but heterogeneous: two meshes, two injections, both designs and
  // two workload kinds. Windows short enough that the full matrix runs in
  // well under a second.
  return explore::parse_sweep(
      "mesh = 2x2, 4x4\n"
      "injection = 0.02, 0.05\n"
      "design = mesh, smart\n"
      "pattern = transpose, neighbor\n"
      "warmup = 200\n"
      "measure = 2000\n"
      "drain_timeout = 20000\n");
}

/// `spec` with one more `key = values` line.
SweepSpec with_key(SweepSpec spec, const std::string& key, const std::string& values) {
  bool workloads_replaced = false;
  explore::apply_sweep_key(spec, key, values, workloads_replaced);
  return spec;
}

/// The values of the axis `key` (empty when it is not swept).
std::vector<std::string> axis_values(const SweepSpec& spec, const std::string& key) {
  for (const explore::SweepAxis& a : spec.axes) {
    if (a.key == key) return a.values;
  }
  return {};
}

// --- Grid expansion ----------------------------------------------------------

TEST(SweepSpec, ExpansionCountIsAxisProduct) {
  SweepSpec spec = tiny_spec();
  EXPECT_EQ(spec.size(), 2u * 2u * 2u * 2u);
  EXPECT_EQ(spec.expand().size(), spec.size());

  spec = with_key(with_key(spec, "flit_bits", "16, 32, 64"), "fault_rate", "0.0, 0.05");
  EXPECT_EQ(spec.size(), 16u * 3u * 2u);
  EXPECT_EQ(spec.expand().size(), 96u);
}

TEST(SweepSpec, ExpansionIsPositionalAndSeedsAreUnique) {
  const SweepSpec spec = tiny_spec();
  const auto pts = spec.expand();
  const auto config = [&](const RunPoint& pt) {
    return explore::make_point_scenario(spec, pt).config;
  };
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    seeds.insert(config(pts[i]).seed);
  }
  EXPECT_EQ(seeds.size(), pts.size()) << "per-point seeds must be distinct";

  // Expansion is a pure function of the spec.
  const auto again = spec.expand();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(config(pts[i]).seed, config(again[i]).seed);
    EXPECT_EQ(config(pts[i]).dims(), config(again[i]).dims());
  }
}

TEST(SweepSpec, EmptyAxisRejected) {
  SweepSpec spec = tiny_spec();
  spec.axes.back().values.clear();  // design, the innermost axis
  EXPECT_THROW(spec.expand(), ConfigError);
}

TEST(SweepSpec, ParseSweepFile) {
  const SweepSpec spec = explore::parse_sweep(
      "# demo\n"
      "mesh = 2x2, 4x4   # two sizes\n"
      "injection = 0.02, 0.05, 0.1\n"
      "pattern = transpose\n"
      "app = vopd\n"
      "design = mesh, smart\n"
      "seed = 7\n"
      "measure = 5000\n");
  EXPECT_EQ(axis_values(spec, "mesh").size(), 2u);
  EXPECT_EQ(axis_values(spec, "injection").size(), 3u);
  EXPECT_EQ(axis_values(spec, "workload").size(), 2u);  // pattern + app accumulate
  EXPECT_EQ(axis_values(spec, "design").size(), 2u);
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.base.config.measure_cycles, 5000u);
  EXPECT_EQ(spec.size(), 2u * 3u * 2u * 2u);

  EXPECT_THROW(explore::parse_sweep("bogus_key = 1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("mesh = 4by4\n"), ConfigError);
}

TEST(SweepSpec, ParserRejectsNegativeAndGarbageValues) {
  // A negative window would wrap through the unsigned Cycle type into a
  // ~2^64-cycle run; it must be a parse error, not a hang.
  EXPECT_THROW(explore::parse_sweep("warmup = -1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("measure = -1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("drain_timeout = -1\n"), ConfigError);
  // Trailing garbage must not silently truncate ("32x64" is not 32).
  EXPECT_THROW(parse_int_token("32x64", "flits"), ConfigError);
  EXPECT_THROW(parse_double_token("0.05;0.1", "inj"), ConfigError);
  // Seeds are full uint64: values beyond INT_MAX must parse.
  EXPECT_EQ(explore::parse_sweep("seed = 5000000000\n").base_seed, 5000000000ULL);
}

TEST(SweepSpec, ExplorerFlagsApplyAsSweepKeys) {
  // A scenario-only file sweeps just its scenarios...
  SweepSpec spec = explore::parse_sweep("scenario_files = a.scn\npattern = transpose\n");
  EXPECT_FALSE(spec.axes.empty());  // ...unless a config axis is named too
  spec = explore::parse_sweep("scenario_files = a.scn\nseed = 3\n");
  EXPECT_TRUE(spec.axes.empty());
  EXPECT_EQ(spec.size(), 1u);

  // The explorer forwards --mesh/--app/... here: an axis flag brings the
  // grid back, and the first workload flag replaces the file's axis.
  bool workloads_replaced = false;
  explore::apply_sweep_key(spec, "mesh", "2x2,4x4", workloads_replaced);
  EXPECT_FALSE(spec.axes.empty());
  EXPECT_EQ(axis_values(spec, "mesh").size(), 2u);
  explore::apply_sweep_key(spec, "app", "vopd", workloads_replaced);
  explore::apply_sweep_key(spec, "pattern", "uniform", workloads_replaced);
  ASSERT_EQ(axis_values(spec, "workload").size(), 2u);
  EXPECT_EQ(axis_values(spec, "workload")[0], "VOPD");
  EXPECT_EQ(axis_values(spec, "workload")[1], "uniform-random");
  // Scalar keys take exactly one value.
  EXPECT_THROW(explore::apply_sweep_key(spec, "seed", "1, 2", workloads_replaced), ConfigError);
  EXPECT_THROW(explore::parse_sweep("warmup = 100, 200\n"), ConfigError);
}

TEST(SweepSpec, ScrambledAxisLinesKeepTheirRowsAndKeys) {
  // All eight axes, declared out of nesting order, plus the seed and window
  // scalars and one scenario file. The rows (flit_bits = 48 fails its rows
  // with the validator's message) and point keys are pinned as FNV-1a
  // digests: any change to nesting, seeds, echo or keys shows here. The
  // scenario path is relative so the rows do not depend on the checkout.
  struct Cwd {
    std::filesystem::path old = std::filesystem::current_path();
    ~Cwd() { std::filesystem::current_path(old); }
  } cwd;
  std::filesystem::current_path(SMARTNOC_SOURCE_DIR);
  const SweepSpec spec = explore::parse_sweep(
      "design = smart, mesh\n"
      "fault_schedule = none, kill@300:0:E\n"
      "seed = 11\n"
      "app = pip\n"
      "flit_bits = 32, 48\n"
      "hpc = 2\n"
      "injection = 0.03\n"
      "warmup = 100\n"
      "fault_rate = 0.05\n"
      "pattern = neighbor\n"
      "mesh = 3x3, 2x2\n"
      "measure = 1000\n"
      "drain_timeout = 20000\n"
      "scenario_files = examples/faultstorm.scn\n");
  ASSERT_EQ(spec.size(), 33u);
  const ResultTable table = explore::run_sweep(spec, 2);
  EXPECT_EQ(fnv1a64(table.to_csv()), 13443975783721094908ULL);
  EXPECT_EQ(fnv1a64(table.to_json()), 361488872806625519ULL);
  const auto pts = spec.expand();
  const auto key = [&](std::size_t i) {
    return serve::point_key(explore::make_point_scenario(spec, pts.at(i))).hex();
  };
  EXPECT_EQ(key(0), "4835f40f6d9414748a45971023781a71");
  EXPECT_EQ(key(21), "270a410ff4a86231389700d95287f37a");
  EXPECT_EQ(key(32), "c2e41b9e59f6839d301ac280e0c15bae");
}

TEST(PointCursor, FoldEqualsAFreshResolutionAtAnyLaneStrideAndOrder) {
  // All eight axis keys at uneven radices (2 and 3), so lane strides of 1,
  // 2 and 3 change different digits from point to point.
  const SweepSpec spec = explore::parse_sweep(
      "mesh = 2x2, 3x3\n"
      "flit_bits = 32, 64\n"
      "hpc = 0, 2\n"
      "injection = 0.02, 0.04, 0.06\n"
      "pattern = transpose, neighbor\n"
      "fault_rate = 0, 0.05\n"
      "fault_schedule = none, kill@300:0:E\n"
      "design = mesh, smart, dedicated\n");
  ASSERT_EQ(spec.axes.size(), 8u);
  const std::vector<RunPoint> pts = spec.expand();
  std::vector<sim::ScenarioSpec> fresh;
  for (const RunPoint& pt : pts) fresh.push_back(explore::make_point_scenario(spec, pt));

  // One cursor per executor lane, folding whatever the lane is handed.
  for (const int threads : {1, 2, 3}) {
    explore::Executor exec(threads);
    std::vector<std::optional<explore::PointCursor>> lanes(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> wrong{0};
    exec.for_each(pts.size(), [&](std::size_t i) {
      auto& lane = lanes[static_cast<std::size_t>(explore::Executor::current_worker())];
      if (!lane) lane.emplace(spec);
      if (!(lane->resolve(pts[i]) == fresh[i])) wrong.fetch_add(1);
    });
    EXPECT_EQ(wrong.load(), 0u) << "threads=" << threads;
  }

  // One cursor visiting every point in a scrambled order, then twice in a row.
  std::vector<std::size_t> order(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Xoshiro256 rng(22);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.next() % i]);
  explore::PointCursor cursor(spec);
  for (const std::size_t i : order) {
    EXPECT_TRUE(cursor.resolve(pts[i]) == fresh[i]) << "point " << i;
    EXPECT_TRUE(cursor.resolve(pts[i]) == fresh[i]) << "point " << i << " again";
  }
}

// --- Workloads ---------------------------------------------------------------

/// Short windows on the base 4x4 SMART point.
constexpr const char* kShortWindows = "warmup = 100\nmeasure = 500\ndrain_timeout = 20000\n";

TEST(SweepWorkloads, EveryRegisteredNameRunsInASweepAndInAScenario) {
  const std::vector<std::string> names = sim::WorkloadRegistry::instance().names();
  std::string list;
  for (const std::string& n : names) list += (list.empty() ? "" : ", ") + n;
  const SweepSpec spec = explore::parse_sweep("workload = " + list + "\n" + kShortWindows);
  const ResultTable table = explore::run_sweep(spec, 2);
  ASSERT_EQ(table.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(table.at(i).ok) << names[i] << ": " << table.at(i).error;
  }

  for (const std::string& n : names) {
    const sim::ScenarioSpec sc = sim::parse_scenario(
        std::string(kShortWindows) + "phase run workload=" + n +
        " injection=0.05 cycles=500 measure\nphase drain drain\n");
    const sim::SessionResult r = sim::Session(sc).run();
    EXPECT_TRUE(r.ok) << n << ": " << r.error;
  }
}

TEST(SweepWorkloads, SweepSpellsWorkloadsAsTheirRegistryEntries) {
  const SweepSpec spec =
      explore::parse_sweep("pattern = uniform, bitcomp\napp = mms-dec, vopd, trace:Cap.sntr\n");
  EXPECT_EQ(axis_values(spec, "workload"),
            (std::vector<std::string>{"uniform-random", "bit-complement", "MMS_DEC", "VOPD",
                                      "trace:Cap.sntr"}));
  EXPECT_THROW(explore::parse_sweep("pattern = no-such-workload\n"), ConfigError);
}

TEST(SweepWorkloads, TraceRowEqualsADirectReplayAndAMissingFileFailsItsRowOnly) {
  const std::string path = ::testing::TempDir() + "smartnoc_sweep_capture.sntr";
  const std::string missing = ::testing::TempDir() + "smartnoc_sweep_missing.sntr";
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.drain_timeout = 20000;
  sim::ScenarioSpec live = sim::ScenarioSpec::classic(Design::Smart, "transpose", 0.05, cfg);
  live.telemetry.record_trace = path;
  ASSERT_TRUE(sim::Session(live).run().ok);

  const SweepSpec spec = explore::parse_sweep("workload = trace:" + path + ", trace:" + missing +
                                              "\n" + kShortWindows);
  const ResultTable table = explore::run_sweep(spec, 2);
  ASSERT_EQ(table.size(), 2u);
  const RunRecord& row = table.at(0);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.workload, "trace:" + path);

  const sim::SessionResult direct =
      sim::Session(sim::ScenarioSpec::classic(Design::Smart, "trace:" + path, 0.05, cfg)).run();
  ASSERT_TRUE(direct.ok) << direct.error;
  const sim::RunResult run = sim::session_to_run_result(direct);
  EXPECT_GT(run.packets_delivered, 0u);
  EXPECT_EQ(row.packets, run.packets_delivered);
  EXPECT_EQ(row.avg_net_latency, run.avg_network_latency);
  EXPECT_EQ(row.avg_total_latency, run.avg_total_latency);
  EXPECT_EQ(row.p99_latency, static_cast<double>(run.p99_network_latency));
  EXPECT_EQ(row.max_latency, static_cast<double>(run.max_network_latency));
  EXPECT_EQ(row.throughput_ppc, run.delivered_packets_per_cycle);

  EXPECT_FALSE(table.at(1).ok);
  EXPECT_EQ(table.at(1).workload, "trace:" + missing);
  EXPECT_FALSE(table.at(1).error.empty());
  std::remove(path.c_str());
}

// --- Point echo and telemetry ------------------------------------------------

TEST(SweepEcho, FaultScheduleEchoesItsCanonicalToken) {
  const SweepSpec spec = explore::parse_sweep(
      "fault_schedule = kill@200:5:e+stall@300:6@350, none\n" + std::string(kShortWindows));
  const ResultTable table = explore::run_sweep(spec, 1);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(0).fault_schedule, "kill@200:5:E+stall@300:6@350");
  EXPECT_EQ(table.at(1).fault_schedule, "none");
}

TEST(SweepEcho, ScenarioPointsKeepTheirDeclaredTelemetryEpoch) {
  const std::string scn = ::testing::TempDir() + "smartnoc_sweep_epoch.scn";
  std::ofstream(scn) << "telemetry_epoch = 500\n"
                        "phase run workload=transpose injection=0.05 cycles=500 measure\n"
                        "phase drain drain\n";
  SweepSpec spec = explore::parse_sweep("design = mesh\nscenario_files = " + scn + "\n");
  spec.telemetry_prefix = "probe";
  const auto pts = spec.expand();
  ASSERT_EQ(pts.size(), 2u);
  const sim::ScenarioSpec grid = explore::make_point_scenario(spec, pts[0]);
  EXPECT_EQ(grid.telemetry.epoch_cycles, 1'024u);
  EXPECT_EQ(grid.telemetry.csv, "probe_p0.csv");
  const sim::ScenarioSpec file = explore::make_point_scenario(spec, pts[1]);
  EXPECT_EQ(file.telemetry.epoch_cycles, 500u);
  EXPECT_EQ(file.telemetry.heatmap, "probe_p1_heatmap.csv");

  spec.telemetry_epoch = 256;  // an explicit window wins everywhere
  EXPECT_EQ(explore::make_point_scenario(spec, pts[1]).telemetry.epoch_cycles, 256u);
  std::remove(scn.c_str());
}

// --- Executor determinism ----------------------------------------------------

TEST(Executor, RunsEveryJobExactlyOnce) {
  explore::Executor exec(4);
  constexpr std::size_t kJobs = 337;
  std::vector<std::atomic<int>> hits(kJobs);
  exec.for_each(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Executor, PropagatesJobExceptions) {
  explore::Executor exec(3);
  EXPECT_THROW(exec.for_each(16,
                             [](std::size_t i) {
                               if (i == 11) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
}

/// Opens once lane 0 has started a job. Jobs on the other lanes wait for
/// it, so the caller's lane takes a job before they can drain its deque,
/// however the threads are scheduled. The wait is bounded: a gate that never
/// opens fails the test instead of hanging it.
class LaneZeroGate {
 public:
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// False if the gate stayed shut for 10 s.
  bool wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(Executor, CallerRunsAsWorkerZero) {
  constexpr int kWorkers = 3;
  constexpr std::size_t kJobs = 24;
  explore::Executor exec(kWorkers);
  const std::thread::id caller = std::this_thread::get_id();
  LaneZeroGate gate;
  std::atomic<bool> gate_timed_out{false};
  std::mutex mu;
  std::vector<std::pair<int, std::thread::id>> seen;
  exec.for_each(kJobs, [&](std::size_t) {
    const int lane = explore::Executor::current_worker();
    if (lane == 0) {
      gate.open();
    } else if (!gate.wait()) {
      gate_timed_out = true;
    }
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(lane, std::this_thread::get_id());
  });
  EXPECT_FALSE(gate_timed_out) << "lane 0 never started a job";
  ASSERT_EQ(seen.size(), kJobs);
  std::size_t on_caller = 0;
  for (const auto& [lane, thread] : seen) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, kWorkers);
    EXPECT_EQ(lane == 0, thread == caller) << "lane 0 is the calling thread, and only it";
    on_caller += lane == 0 ? 1 : 0;
  }
  EXPECT_GT(on_caller, 0u);
  EXPECT_EQ(explore::Executor::current_worker(), -1) << "the caller reads -1 after for_each";
}

TEST(Executor, ExceptionOnTheCallersLanePropagatesAfterTheJoin) {
  constexpr std::size_t kJobs = 12;
  explore::Executor exec(3);
  LaneZeroGate gate;
  std::atomic<bool> gate_timed_out{false};
  std::atomic<int> running{0};
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(exec.for_each(kJobs,
                             [&](std::size_t) {
                               if (explore::Executor::current_worker() == 0) {
                                 gate.open();
                                 throw std::runtime_error("caller lane");
                               }
                               if (!gate.wait()) gate_timed_out = true;
                               running.fetch_add(1);
                               std::this_thread::sleep_for(std::chrono::milliseconds(1));
                               finished.fetch_add(1);
                               running.fetch_sub(1);
                             }),
               std::runtime_error);
  EXPECT_FALSE(gate_timed_out) << "lane 0 never started a job";
  // Lane 0 stopped at its first job; the other lanes ran theirs and stole
  // the rest, all before for_each rethrew.
  EXPECT_EQ(running.load(), 0);
  EXPECT_EQ(finished.load(), kJobs - 1);
  EXPECT_EQ(explore::Executor::current_worker(), -1);
}

/// Names the calling thread: a number drawn the first time a thread asks,
/// kept in a thread_local. A thread spawned anew (even one that reuses an
/// exited thread's stack and std::thread::id) draws a new one.
std::uint64_t thread_token() {
  static std::atomic<std::uint64_t> next{0};
  thread_local std::uint64_t token = 0;
  if (token == 0) token = next.fetch_add(1) + 1;
  return token;
}

/// The thread_token of each lane in one for_each call of width `lanes`
/// with one job per lane. Every job waits until all have started, so no
/// lane can take another's job.
std::vector<std::uint64_t> lane_tokens(const explore::Executor& exec, int lanes) {
  std::vector<std::uint64_t> tokens(static_cast<std::size_t>(lanes));
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool timed_out = false;
  exec.for_each(static_cast<std::size_t>(lanes), [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    tokens[static_cast<std::size_t>(explore::Executor::current_worker())] = thread_token();
    if (++started == lanes) cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return started == lanes; })) {
      timed_out = true;
    }
  });
  EXPECT_FALSE(timed_out) << "a lane never started";
  return tokens;
}

TEST(Executor, WorkersStayParkedBetweenCalls) {
  const explore::Executor exec(3);
  const std::vector<std::uint64_t> first = lane_tokens(exec, 3);
  const std::vector<std::uint64_t> second = lane_tokens(exec, 3);
  EXPECT_EQ(first[0], thread_token());
  EXPECT_EQ(second[0], thread_token());
  EXPECT_EQ((std::set<std::uint64_t>(first.begin(), first.end()).size()), 3u);
  // The second call runs lanes 1-2 on the threads the first one used (in
  // either order): they were parked, not joined and spawned again.
  EXPECT_EQ((std::set<std::uint64_t>{first[1], first[2]}),
            (std::set<std::uint64_t>{second[1], second[2]}));
}

TEST(Executor, NestedForEachRunsEveryJobOnceAndRestoresTheLane) {
  constexpr std::size_t kOuter = 8, kInner = 6;
  const explore::Executor exec(2);
  std::vector<std::atomic<int>> outer_runs(kOuter), inner_runs(kOuter * kInner);
  std::atomic<int> bad_inner_call{0}, not_restored{0};
  exec.for_each(kOuter, [&](std::size_t i) {
    const int lane = explore::Executor::current_worker();
    const std::uint64_t call = explore::Executor::current_call();
    exec.for_each(kInner, [&](std::size_t j) {
      const std::uint64_t inner = explore::Executor::current_call();
      if (inner == call || inner == 0) bad_inner_call.fetch_add(1);
      inner_runs[i * kInner + j].fetch_add(1);
    });
    if (explore::Executor::current_worker() != lane ||
        explore::Executor::current_call() != call) {
      not_restored.fetch_add(1);
    }
    outer_runs[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kOuter; ++i) EXPECT_EQ(outer_runs[i].load(), 1) << i;
  for (std::size_t k = 0; k < kOuter * kInner; ++k) EXPECT_EQ(inner_runs[k].load(), 1) << k;
  EXPECT_EQ(bad_inner_call.load(), 0) << "an inner job reads its own call";
  EXPECT_EQ(not_restored.load(), 0) << "the outer job reads its lane and call again";
  EXPECT_EQ(explore::Executor::current_worker(), -1);
  EXPECT_EQ(explore::Executor::current_call(), 0u);
}

TEST(Explore, SweepIsBitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();
  const ResultTable one = explore::run_sweep(spec, 1);
  const ResultTable many = explore::run_sweep(spec, 4);
  ASSERT_EQ(one.size(), spec.size());
  ASSERT_EQ(many.size(), spec.size());
  EXPECT_EQ(one.rows(), many.rows());
  // The exported artifacts - what a user diffs - must match byte for byte.
  EXPECT_EQ(one.to_csv(), many.to_csv());
  EXPECT_EQ(one.to_json(), many.to_json());
}

// --- Serialization round-trips ----------------------------------------------

RunRecord awkward_record() {
  // A failed row with CSV/JSON-hostile characters in the error message.
  RunRecord r;
  r.index = 3;
  r.width = 4;
  r.height = 4;
  r.flit_bits = 32;
  r.injection = 0.05;
  r.workload = "uniform-random";
  r.design = "SMART";
  r.seed = 0xdeadbeefcafeULL;
  r.ok = false;
  r.error = "line 1, \"quoted\",\nline 2\tend";
  return r;
}

TEST(ResultTable, CsvRoundTrip) {
  const SweepSpec spec = tiny_spec();
  ResultTable table = explore::run_sweep(spec, 2);
  table.add(awkward_record());

  const std::string csv = table.to_csv();
  const ResultTable parsed = ResultTable::from_csv(csv);
  ASSERT_EQ(parsed.size(), table.size());
  EXPECT_EQ(parsed.rows(), table.rows());
  EXPECT_EQ(parsed.to_csv(), csv);

  EXPECT_THROW(ResultTable::from_csv("not,a,result,table\n"), ConfigError);
  // A boolean column takes only 1/0/true/false: "yes" is an error, not false.
  std::string yes = csv;
  const std::size_t ok_field = yes.find(",0,\"line 1");
  ASSERT_NE(ok_field, std::string::npos);
  yes.replace(ok_field, 3, ",yes,");
  EXPECT_THROW(ResultTable::from_csv(yes), ConfigError);
}

TEST(ResultTable, JsonRoundTrip) {
  const SweepSpec spec = tiny_spec();
  ResultTable table = explore::run_sweep(spec, 2);
  table.add(awkward_record());

  const std::string json = table.to_json();
  const ResultTable parsed = ResultTable::from_json(json);
  ASSERT_EQ(parsed.size(), table.size());
  EXPECT_EQ(parsed.rows(), table.rows());
  EXPECT_EQ(parsed.to_json(), json);

  EXPECT_EQ(ResultTable::from_json("[]").size(), 0u);
  // A boolean column takes only true/false (or 1/0): 2 is an error, not false.
  std::string two = json;
  const std::size_t ok_field = two.find("\"ok\": false");
  ASSERT_NE(ok_field, std::string::npos);
  two.replace(ok_field, 11, "\"ok\": 2");
  EXPECT_THROW(ResultTable::from_json(two), ConfigError);
}

// --- Pareto frontier ---------------------------------------------------------

TEST(ResultTable, ParetoFrontierMinimizesAllThreeObjectives) {
  auto rec = [](double lat, double power, double area, bool ok = true) {
    RunRecord r;
    r.ok = ok;
    r.avg_net_latency = lat;
    r.power_mw = power;
    r.area_mm2 = area;
    return r;
  };
  ResultTable t;
  t.add(rec(1.0, 10.0, 5.0));   // 0: best latency
  t.add(rec(5.0, 2.0, 5.0));    // 1: best power
  t.add(rec(5.0, 10.0, 1.0));   // 2: best area
  t.add(rec(6.0, 10.0, 5.0));   // 3: dominated by 0
  t.add(rec(1.0, 10.0, 5.0));   // 4: ties 0 - ties are not dominated
  t.add(rec(0.5, 1.0, 0.5, false));  // 5: would dominate all, but failed
  EXPECT_EQ(t.pareto_frontier(), (std::vector<std::size_t>{0, 1, 2, 4}));
}

// --- Drain-timeout contract --------------------------------------------------

TEST(Explore, DrainTimeoutSurfacesAsErrorNotPartialStats) {
  // Uniform-random on the baseline mesh far beyond saturation, with a
  // drain window too short to empty the network: the row must fail with a
  // drain message and carry no latency/power numbers.
  const SweepSpec spec = explore::parse_sweep(
      "pattern = uniform\n"
      "injection = 0.8\n"
      "design = mesh\n"
      "warmup = 200\n"
      "measure = 2000\n"
      "drain_timeout = 300\n");
  const ResultTable table = explore::run_sweep(spec, 1);
  ASSERT_EQ(table.size(), 1u);
  const RunRecord& r = table.at(0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("drain timeout"), std::string::npos) << r.error;
  EXPECT_EQ(r.avg_net_latency, 0.0);
  EXPECT_EQ(r.power_mw, 0.0);
  EXPECT_EQ(table.ok_count(), 0u);
  EXPECT_TRUE(table.pareto_frontier().empty());
}

TEST(Explore, BadConfigPointFailsItsRowOnly) {
  // flit_bits = 48 does not divide the 256-bit packet: that grid point
  // fails with the validator's message; the 32-bit points still run.
  SweepSpec spec = tiny_spec();
  spec = with_key(with_key(spec, "mesh", "2x2"), "injection", "0.02");
  spec = with_key(with_key(spec, "design", "smart"), "pattern", "transpose");
  spec = with_key(spec, "flit_bits", "32, 48");
  const ResultTable table = explore::run_sweep(spec, 2);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.at(0).ok);
  EXPECT_FALSE(table.at(1).ok);
  EXPECT_NE(table.at(1).error.find("packet_bits"), std::string::npos) << table.at(1).error;
}

// --- Richer RunResult --------------------------------------------------------

TEST(RunnerStats, RunResultCarriesLatencySnapshot) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_timeout = 20000;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                         noc::TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  sim::BernoulliWorkload traffic(cfg, smart.net->flows(), cfg.seed);
  const sim::RunResult run = sim::run_simulation(*smart.net, traffic, cfg);
  ASSERT_TRUE(run.drained);
  const auto& stats = smart.net->stats();
  EXPECT_EQ(run.packets_delivered, stats.total_packets());
  EXPECT_DOUBLE_EQ(run.avg_network_latency, stats.avg_network_latency());
  EXPECT_DOUBLE_EQ(run.avg_total_latency, stats.avg_total_latency());
  EXPECT_EQ(run.p50_network_latency, stats.latency_percentile(50.0));
  EXPECT_EQ(run.p99_network_latency, stats.latency_percentile(99.0));
  EXPECT_GE(run.max_network_latency, run.p99_network_latency);
  EXPECT_GT(run.delivered_packets_per_cycle, 0.0);
}

}  // namespace
}  // namespace smartnoc
