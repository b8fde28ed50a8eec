// The CI performance gates, in one binary with no flags. Each gate prices one
// piece of machinery against the run without it and holds the price to a
// fixed bound; the binary prints a table, then one JSON line, and exits 1 if
// any gate is breached.
//
// A/B gates run in rounds. A round times side A and side B once each on
// identical work (the same experiments, or the same simulated cycles of two
// networks kept in lockstep), and which side goes first alternates between
// rounds, so host drift lands on both sides alike. The gate value is the
// median of the per-round ratios. A null pair - the Session run against
// itself, through the same estimator - is printed beside them, ungated, so
// the host's noise floor reads next to the 2% bounds.
//
// Two gates are direct per-point measurements, because a sweep A/B cannot
// resolve microseconds against seconds of simulation: the cold cache cost
// (key derivation + miss + insert per point) and the observability
// machinery (per-task instrumentation), each over a point's simulation time.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "explore/explore.hpp"
#include "noc/fault_engine.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "obs/spans.hpp"
#include "serve/point_key.hpp"
#include "serve/result_cache.hpp"
#include "serve/serve.hpp"
#include "sim/session.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/trace_file.hpp"

namespace {

using namespace smartnoc;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Rounds of the classic-experiment gates, whose sides are a few
/// milliseconds each: many short rounds leave less drift between the two
/// sides of a round than a few long ones, on a shared host.
constexpr int kClassicRounds = 41;
/// Classic experiments per side and round (about 1 ms each).
constexpr int kExperiments = 10;
/// Rounds of the gates whose sides are whole sweeps or loaded 64x64 runs.
constexpr int kRounds = 11;

volatile std::uint64_t g_sink = 0;  // keeps measured results observable

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-round cost ratios B/A: each round calls a() and b() once (each
/// returns its cost for the round's work), alternating which goes first.
template <class A, class B>
std::vector<double> paired_ratios(int rounds, A&& a, B&& b) {
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    double ca = 0.0, cb = 0.0;
    if (r % 2 == 0) {
      ca = a();
      cb = b();
    } else {
      cb = b();
      ca = a();
    }
    ratios.push_back(cb / ca);
  }
  return ratios;
}

struct Gate {
  std::string name, a, b;
  double value = 0.0;
  bool ceiling = true;  ///< value <= bound passes; otherwise value >= bound
  double bound = 0.0;
  std::string how;      ///< the estimator, with its spread or its parts
  bool checked = true;

  bool pass() const { return !checked || (ceiling ? value <= bound : value >= bound); }
};

/// An A/B gate from per-round cost ratios B/A (an odd count): an overhead
/// (median - 1) when `ceiling`, else a speedup (median of A/B).
Gate ab_gate(std::string name, std::string a, std::string b, const std::vector<double>& ratios,
             bool ceiling, double bound) {
  std::vector<double> v;
  for (const double r : ratios) v.push_back(ceiling ? r - 1.0 : 1.0 / r);
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {std::move(name), std::move(a), std::move(b), v[n / 2], ceiling, bound,
          strf("median of %zu rounds, IQR %.4f..%.4f", n, v[n / 4], v[3 * n / 4])};
}

// --- Classic 4x4 experiments -------------------------------------------------
// One complete warmup/measure/drain experiment per call; each returns the
// cycles it simulated, so a side's cost is seconds per simulated cycle.

NocConfig classic_cfg() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_timeout = 10'000;
  return cfg;
}

sim::ScenarioSpec classic(Design design, const NocConfig& cfg = classic_cfg()) {
  return sim::ScenarioSpec::classic(design, "transpose", 0.05, cfg);
}

/// `stepped` runs the phases by hand, so that no telemetry file is flushed.
std::uint64_t run_scenario(sim::ScenarioSpec spec, bool stepped = false) {
  sim::Session session(std::move(spec));
  if (stepped) {
    while (!session.done()) session.run_phase();
  } else {
    session.run();
  }
  std::uint64_t cycles = 0;
  for (const sim::PhaseResult& p : session.completed()) cycles += p.cycles_run;
  g_sink = g_sink + session.completed().back().packets_delivered;
  return cycles;
}

/// The recovery machinery armed but idle: watchdog on, retry knobs set, and
/// one scheduled kill that never fires.
std::uint64_t fault_armed_run() {
  NocConfig cfg = classic_cfg();
  cfg.watchdog_window = 5'000;
  cfg.retry_limit = 3;
  cfg.retry_backoff_cycles = 64;
  sim::ScenarioSpec spec = classic(Design::Mesh, cfg);
  spec.fault_events = noc::parse_fault_schedule_token("kill@1000000000:5:E");
  return run_scenario(std::move(spec));
}

/// The paper's design, with a telemetry probe (epoch series + injection
/// recording) or without, and optionally the per-epoch power series on top.
std::uint64_t probe_run(bool with_probe, bool power_series) {
  sim::ScenarioSpec spec = classic(Design::Smart);
  if (with_probe) {
    spec.telemetry.epoch_cycles = 1'024;
    spec.telemetry.record_trace = "/dev/null";  // keep the injection sink hot
    if (power_series) spec.telemetry.power_csv = "/dev/null";
  }
  return run_scenario(std::move(spec), true);
}

enum class Capture { None, Buffered, Streaming };

/// What Session orchestrates, wired by hand; optionally recording every
/// injection, into the probe's memory log or through a StreamingTraceWriter
/// flushing 64 KiB chunks to /dev/null.
std::uint64_t hand_wired(Capture capture) {
  const NocConfig cfg = classic_cfg();
  auto net = noc::make_baseline_mesh(
      cfg, noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                     noc::TurnModel::XY));
  std::optional<telemetry::Probe> probe;
  std::optional<telemetry::StreamingTraceWriter> writer;
  if (capture != Capture::None) {
    telemetry::Probe::Config pc;
    pc.epoch_cycles = 0;  // pure capture: no time series
    pc.record_injections = capture == Capture::Buffered;
    probe.emplace(cfg.dims(), cfg.flits_per_packet(), pc);
    net->set_observer(&*probe);
  }
  if (capture == Capture::Streaming) {
    writer.emplace("/dev/null");
    writer->begin_era(cfg, net->flows());
    probe->set_injection_sink([w = &*writer](Cycle c, FlowId f) { w->add(c, f); });
  }
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  for (Cycle c = 0; c < cfg.warmup_cycles + cfg.measure_cycles; ++c) {
    if (c == cfg.warmup_cycles) net->stats().reset();
    net->tick();
    traffic.generate(*net);
  }
  traffic.set_enabled(false);
  Cycle drained_after = 0;
  while (!net->drained() && drained_after < cfg.drain_timeout) {
    net->tick();
    drained_after += 1;
  }
  g_sink = g_sink + net->stats().total_packets();
  if (writer) {
    writer->finish();
    g_sink = g_sink + writer->records();
  }
  return cfg.warmup_cycles + cfg.measure_cycles + drained_after;
}

/// Paired rounds of two classic experiments, kExperiments of each per round.
template <class A, class B>
std::vector<double> classic_ratios(A&& a, B&& b) {
  a();  // let caches fill and lazy set-up finish
  b();
  const auto cost = [](auto& experiment) {
    std::uint64_t cycles = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kExperiments; ++i) cycles += experiment();
    return seconds_since(t0) / static_cast<double>(cycles);
  };
  return paired_ratios(kClassicRounds, [&] { return cost(a); }, [&] { return cost(b); });
}

// --- Sweeps: the serving cache and the observability machinery ---------------

constexpr int kSweepThreads = 4;
/// 16 points long enough that per-point microseconds are measured against
/// realistic simulation work; the serving gates add a pattern axis.
constexpr const char* kSweep =
    "mesh = 4x4, 6x6\n"
    "injection = 0.01, 0.02, 0.04, 0.08\n"
    "design = mesh, smart\n"
    "warmup = 1000\n"
    "measure = 20000\n"
    "drain_timeout = 50000\n";

struct TimedTable {
  double s;
  std::string csv;
};

TimedTable timed_sweep(const explore::SweepSpec& spec, const explore::SweepHooks& hooks = {}) {
  const auto t0 = Clock::now();
  const explore::ResultTable table = explore::run_sweep(spec, kSweepThreads, {}, hooks);
  return {seconds_since(t0), table.to_csv()};
}

/// Warm cache speedup (A/B over a sweep simulated vs served) and the cold
/// per-point cache cost (direct). Fails `identical` if a cached table
/// diverges from the uncached one.
std::pair<Gate, Gate> serve_gates(bool& identical) {
  const explore::SweepSpec spec =
      explore::parse_sweep(std::string(kSweep) + "pattern = transpose, neighbor\n");
  const auto points = static_cast<double>(spec.size());
  const fs::path root = fs::temp_directory_path() / "smartnoc_bench_gates";
  fs::remove_all(root);

  const std::string reference = timed_sweep(spec).csv;
  {
    serve::ResultCache cold((root / "warm").string());
    identical = timed_sweep(spec, serve::cache_hooks(cold)).csv == reference && identical;
  }
  double nocache_best = 1e300;
  const auto ratios = paired_ratios(
      kRounds,
      [&] {
        const double s = timed_sweep(spec).s;
        nocache_best = std::min(nocache_best, s);
        return s;
      },
      [&] {
        serve::ResultCache warm((root / "warm").string());
        const TimedTable t = timed_sweep(spec, serve::cache_hooks(warm));
        identical = t.csv == reference && identical;
        return t.s;
      });
  Gate warm = ab_gate("warm_cache_speedup", "sweep simulated", "sweep served from a warm cache",
                      ratios, false, 10.0);

  // The cold sweep's cache tax is one key derivation plus one miss + insert
  // (with its durability flush) per point.
  const int hook_reps = 20;
  const std::vector<explore::RunPoint> pts = spec.expand();
  explore::RunRecord rec;
  rec.ok = true;
  const auto t0 = Clock::now();
  for (int r = 0; r < hook_reps; ++r) {
    serve::ResultCache cache((root / ("hook_" + std::to_string(r))).string());
    for (const explore::RunPoint& pt : pts) {
      const Hash128 key = serve::point_key(explore::make_point_scenario(spec, pt));
      g_sink = g_sink + cache.lookup(key).has_value();  // a miss
      rec.index = pt.index;
      cache.insert(key, rec);
    }
  }
  const double hook_s = seconds_since(t0) / (hook_reps * points);
  fs::remove_all(root);

  const double point_s = nocache_best / points;
  Gate cold{"cold_cache_cost", "point simulated (best sweep / points)",
            "key derivation + miss + insert per point", hook_s / point_s, true, 0.02,
            strf("direct: %.1f us over %.0f us", hook_s * 1e6, point_s * 1e6)};
  return {warm, cold};
}

/// Armed-but-idle observability (per-worker counters and the span tracer)
/// per task, over a point's simulation time with instrumentation off. Fails
/// `identical` if an instrumented table diverges from the plain one.
Gate obs_gate(bool& identical) {
  const explore::SweepSpec spec = explore::parse_sweep(kSweep);
  const int reps = 3;
  explore::Executor::instrumentation_enabled() = false;
  double off_s = 1e300;
  std::string reference;
  for (int r = 0; r < reps; ++r) {
    TimedTable t = timed_sweep(spec);
    off_s = std::min(off_s, t.s);
    reference = std::move(t.csv);
  }
  explore::Executor::instrumentation_enabled() = true;
  identical = timed_sweep(spec).csv == reference && identical;
  {
    obs::SpanTracer tracer;
    explore::SweepHooks hooks;
    hooks.tracer = &tracer;
    identical = timed_sweep(spec, hooks).csv == reference && identical;
  }

  // A large batch of small fixed-work tasks with the machinery off and on:
  // the per-task delta is exactly what for_each adds around one job.
  const std::size_t micro_tasks = 200'000;
  const auto micro_job = [](std::size_t i) {
    auto acc = static_cast<unsigned>(i);
    for (int k = 0; k < 400; ++k) acc = acc * 1664525u + 1013904223u;
    [[maybe_unused]] volatile unsigned sink = acc;
  };
  const auto timed_micro = [&](bool instrumented) {
    explore::Executor::instrumentation_enabled() = instrumented;
    explore::Executor exec(kSweepThreads);
    obs::SpanTracer tracer;
    if (instrumented) exec.set_tracer(&tracer, "task");
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      exec.for_each(micro_tasks, micro_job);
      best = std::min(best, seconds_since(t0));
    }
    return best;
  };
  const double micro_off_s = timed_micro(false);
  const double micro_on_s = timed_micro(true);
  explore::Executor::instrumentation_enabled() = true;

  const double per_task_s = (micro_on_s - micro_off_s) / static_cast<double>(micro_tasks);
  const double point_s = off_s / static_cast<double>(spec.size());
  // A negative delta is noise; the cost cannot be below zero.
  return {"obs_machinery_cost", "point simulated, instrumentation off (best of 3)",
          "instrumented task (counters + span)", std::max(per_task_s, 0.0) / point_s, true, 0.02,
          strf("direct: %.3f us over %.0f us", per_task_s * 1e6, point_s * 1e6)};
}

// --- The sharded cycle kernel on one loaded 64x64 ----------------------------

/// Uniform-random load bounded to a Manhattan radius: every node sends to
/// four deterministic random destinations within `radius` hops. A 64-bit
/// source route caps a path at 31 links, and all-pairs uniform-random on a
/// 64x64 would be 16M flows; local-uniform keeps every router busy at
/// O(nodes) flows with legal routes.
noc::FlowSet local_uniform_flows(const NocConfig& cfg, double flits_per_node_cycle, int radius) {
  constexpr int kFlowsPerNode = 4;
  const MeshDims dims = cfg.dims();
  const double pkts_per_flow_cycle =
      flits_per_node_cycle / cfg.flits_per_packet() / kFlowsPerNode;
  noc::FlowSet out;
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    Xoshiro256 rng = make_stream(cfg.seed, 0x10CA1ULL * 131 + static_cast<std::uint64_t>(s));
    const Coord c = dims.coord(s);
    for (int f = 0; f < kFlowsPerNode; ++f) {
      Coord d = c;
      while (d.x == c.x && d.y == c.y) {
        const int lo_x = std::max(0, c.x - radius), hi_x = std::min(dims.width() - 1, c.x + radius);
        const int lo_y = std::max(0, c.y - radius), hi_y = std::min(dims.height() - 1, c.y + radius);
        d.x = lo_x + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_x - lo_x + 1)));
        d.y = lo_y + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_y - lo_y + 1)));
      }
      const NodeId dst = dims.id(d);
      out.add(s, dst, noc::mbps_for_packets_per_cycle(cfg, pkts_per_flow_cycle),
              noc::xy_path(dims, s, dst));
    }
  }
  return out;
}

/// A loaded 64x64 baseline mesh with its traffic, warmed up.
struct LoadedMesh {
  NocConfig cfg;
  std::unique_ptr<noc::MeshNetwork> net;
  std::unique_ptr<noc::TrafficEngine> traffic;

  static constexpr Cycle kWarmup = 500;

  LoadedMesh(int shards, bool force_armed) : cfg(NocConfig::paper_4x4()) {
    cfg.width = 64;
    cfg.height = 64;
    cfg.shard_threads = shards;
    cfg.fit_derived();
    cfg.validate();
    net = noc::make_baseline_mesh(cfg, local_uniform_flows(cfg, 0.03, 12));
    if (force_armed) net->force_sharded_path(true);
    traffic = std::make_unique<noc::TrafficEngine>(cfg, net->flows(), cfg.seed);
    run(kWarmup);
  }

  /// Seconds to tick and generate `cycles` cycles.
  double run(Cycle cycles) {
    const auto t0 = Clock::now();
    for (Cycle c = 0; c < cycles; ++c) {
      net->tick();
      traffic->generate(*net);
    }
    return seconds_since(t0);
  }
};

/// The armed sharded protocol at one shard (sinks, mailboxes, epilogue)
/// against the plain active-set kernel. The two networks are bit-identical,
/// so each round advances both over the same cycles. A side needs a few
/// hundred cycles: after a switch the other network's state is cold.
Gate armed_shard_gate() {
  constexpr Cycle kBlock = 250;
  LoadedMesh plain(1, false), armed(1, true);
  const auto ratios =
      paired_ratios(kRounds, [&] { return plain.run(kBlock); }, [&] { return armed.run(kBlock); });
  return ab_gate("armed_shard_overhead", "64x64, plain kernel", "64x64, armed protocol at 1 shard",
                 ratios, true, 0.03);
}

/// One shard against four on the same 64x64. Each side is built afresh per
/// round: idle shard workers spin, so a live 4-shard network would tax the
/// 1-shard side.
Gate shard_speedup_gate(bool checked) {
  Gate g{"shard_speedup_4", "64x64, 1 shard", "64x64, 4 shards", 0.0, false, 2.5,
         "needs 4 hardware threads", false};
  if (!checked) return g;
  constexpr Cycle kMeasure = 2'500;
  const auto ratios = paired_ratios(
      kRounds, [] { return LoadedMesh(1, false).run(kMeasure); },
      [] { return LoadedMesh(4, false).run(kMeasure); });
  return ab_gate(g.name, g.a, g.b, ratios, false, 2.5);
}

}  // namespace

int main() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("=== CI performance gates (%d hardware threads) ===\n\n", hw);
  std::fflush(stdout);

  const auto session = [] { return run_scenario(classic(Design::Mesh)); };
  const auto probe = [](bool on, bool series) { return [=] { return probe_run(on, series); }; };
  const auto capture = [](Capture c) { return [=] { return hand_wired(c); }; };
  std::vector<Gate> gates = {
      ab_gate("scenario_api_overhead", "classic 4x4, hand-wired loop", "Session",
              classic_ratios(capture(Capture::None), session), true, 0.02),
      ab_gate("telemetry_probe_overhead", "classic SMART 4x4, no probe", "probe",
              classic_ratios(probe(false, false), probe(true, false)), true, 0.08),
      ab_gate("power_series_overhead", "probe", "probe + power series",
              classic_ratios(probe(true, false), probe(true, true)), true, 0.03),
      ab_gate("streaming_capture_overhead", "capture into memory", "streaming capture",
              classic_ratios(capture(Capture::Buffered), capture(Capture::Streaming)), true,
              0.05),
      ab_gate("fault_machinery_overhead", "Session", "Session, faults armed idle",
              classic_ratios(session, fault_armed_run), true, 0.02)};
  const Gate null_pair = ab_gate("null_session_vs_session", "Session", "Session",
                                 classic_ratios(session, session), true, 0.0);

  bool tables_identical = true;
  auto [warm, cold] = serve_gates(tables_identical);
  gates.push_back(warm);
  gates.push_back(cold);
  gates.push_back(obs_gate(tables_identical));
  gates.push_back(armed_shard_gate());
  gates.push_back(shard_speedup_gate(hw >= 4));

  TextTable t({"gate", "A", "B", "value", "bound", "estimator", "result"});
  const auto row = [&t](const Gate& g, const std::string& result) {
    t.add_row({g.name, g.a, g.b, strf("%.4f", g.value),
               strf("%s %g", g.ceiling ? "<=" : ">=", g.bound), g.how, result});
  };
  bool pass = tables_identical;
  for (const Gate& g : gates) {
    row(g, !g.checked ? "not checked" : g.pass() ? "pass" : "FAIL");
    pass = pass && g.pass();
  }
  row(null_pair, "noise floor");
  t.print();
  std::printf("\ncached and instrumented tables identical to the plain sweep: %s\n\n",
              tables_identical ? "yes" : "NO");

  std::string json = strf("{\"hardware_threads\": %d, \"gates\": [", hw);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    json += strf("%s{\"gate\": \"%s\", \"value\": %.6g, \"op\": \"%s\", \"bound\": %g, "
                 "\"checked\": %s, \"pass\": %s}",
                 i ? ", " : "", g.name.c_str(), g.value, g.ceiling ? "<=" : ">=", g.bound,
                 g.checked ? "true" : "false", g.pass() ? "true" : "false");
  }
  json += strf("], \"null_session_vs_session\": %.6g, \"tables_identical\": %s, \"pass\": %s}",
               null_pair.value, tables_identical ? "true" : "false", pass ? "true" : "false");
  std::puts(json.c_str());
  return pass ? 0 : 1;
}
