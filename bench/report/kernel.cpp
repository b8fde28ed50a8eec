// The kernel workloads: one SMART mesh under bounded-radius uniform traffic,
// driven and timed from outside through its public calls (tick, generate,
// drained, stats, shard_telemetry, packet_pool).
//
// A run is a closed loop: 2000 untimed warm-up cycles, then fixed-length
// windows back to back until --seconds have passed (at least kDigestWindows
// of them), then a bounded drain. The first kDigestWindows windows are the
// pinned prefix: its counters depend only on the seed, never on how fast
// the host ran, so they are the correctness digest.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "report.hpp"
#include "sim/workload.hpp"
#include "smart/smart_network.hpp"

namespace bench_report {

namespace {

using namespace smartnoc;

struct KernelWorkload {
  const char* name;
  int side;
  int shards;
  Cycle window;  ///< cycles per timed window, ~5 ms of host time
};

// Same per-node traffic on both meshes: the 8x8's hot state fits in L2, the
// 64x64's (4096 routers) is far beyond it. x2 is the 64x64 simulation on two
// shard threads and must reproduce it bit for bit.
constexpr KernelWorkload kKernels[] = {
    {"smart8x8_local", 8, 1, 4000},
    {"smart64_local", 64, 1, 40},
    {"smart64_local_x2", 64, 2, 40},
};

constexpr Cycle kWarmup = 2'000;
constexpr int kDigestWindows = 200;
constexpr double kInjection = 0.03;  ///< flits/node/cycle
constexpr int kRadius = 4;           ///< Manhattan radius of every flow
constexpr int kFlowsPerNode = 4;
constexpr Cycle kDrainLimit = 100'000;

const KernelWorkload* find_kernel(const std::string& name) {
  for (const KernelWorkload& k : kKernels) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

/// Every node sends to kFlowsPerNode seeded random destinations within
/// kRadius hops. Bounded radius keeps routes inside the 64-bit source-route
/// encoding on 64x64 and gives both meshes the same per-node load and hop
/// count.
noc::FlowSet local_uniform_flows(const NocConfig& cfg) {
  const MeshDims dims = cfg.dims();
  const double pkts_per_flow_cycle = kInjection / cfg.flits_per_packet() / kFlowsPerNode;
  noc::FlowSet out;
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    Xoshiro256 rng = make_stream(cfg.seed, 0xB3C4ULL * 977 + static_cast<std::uint64_t>(s));
    const Coord c = dims.coord(s);
    const int lo_x = std::max(0, c.x - kRadius), hi_x = std::min(dims.width() - 1, c.x + kRadius);
    const int lo_y = std::max(0, c.y - kRadius), hi_y = std::min(dims.height() - 1, c.y + kRadius);
    for (int f = 0; f < kFlowsPerNode; ++f) {
      Coord d = c;
      while (d.x == c.x && d.y == c.y) {
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

NocConfig kernel_config(const KernelWorkload& w, std::uint64_t seed, int shards) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = w.side;
  cfg.height = w.side;
  cfg.shard_threads = shards;
  cfg.seed = seed;
  cfg.fit_derived();
  cfg.validate();
  return cfg;
}

struct Kernel {
  std::unique_ptr<noc::MeshNetwork> net;
  std::unique_ptr<sim::BernoulliWorkload> traffic;
  int hpc_max = 0;
};

Kernel build_kernel(const NocConfig& cfg) {
  Kernel k;
  smart::SmartBuild b = smart::make_smart_network(cfg, local_uniform_flows(cfg));
  k.net = std::move(b.net);
  k.hpc_max = b.hpc_max;
  k.traffic = std::make_unique<sim::BernoulliWorkload>(cfg, k.net->flows(), cfg.seed);
  return k;
}

struct StageTimes {
  std::vector<double> flows, presets, registers, build, workload;
};

/// The steps of smart::make_smart_network, one at a time so each is timed.
/// The traced run's digest is checked like the untraced one's, so a drift
/// from the factory shows as a failed check.
Kernel build_kernel_staged(const NocConfig& cfg, StageTimes& st, SpanLog& spans,
                           std::uint64_t parent) {
  const auto t0 = Clock::now();
  noc::FlowSet flows = local_uniform_flows(cfg);
  const auto t1 = Clock::now();
  Kernel k;
  k.hpc_max = smart::effective_hpc_max(cfg);
  const smart::PresetBuild presets =
      smart::compute_presets(cfg, flows, k.hpc_max, /*enable_bypass=*/true);
  const auto t2 = Clock::now();
  noc::PresetTable decoded = smart::roundtrip_through_registers(presets.table, cfg.dims());
  const auto t3 = Clock::now();
  noc::MeshNetwork::Options opt;
  opt.extra_link_cycle = false;
  opt.hpc_max = k.hpc_max;
  k.net = std::make_unique<noc::MeshNetwork>(cfg, std::move(flows), std::move(decoded), opt);
  const auto t4 = Clock::now();
  k.traffic = std::make_unique<sim::BernoulliWorkload>(cfg, k.net->flows(), cfg.seed);
  const auto t5 = Clock::now();
  st.flows.push_back(seconds_between(t0, t1));
  st.presets.push_back(seconds_between(t1, t2));
  st.registers.push_back(seconds_between(t2, t3));
  st.build.push_back(seconds_between(t3, t4));
  st.workload.push_back(seconds_between(t4, t5));
  spans.add("sim.flows", "setup", t0, t1, parent);
  spans.add("smart.presets", "setup", t1, t2, parent);
  spans.add("smart.registers", "setup", t2, t3, parent);
  spans.add("noc.build", "setup", t3, t4, parent);
  spans.add("sim.workload", "setup", t4, t5, parent);
  return k;
}

void run_cycles(Kernel& k, Cycle n) {
  for (Cycle c = 0; c < n; ++c) {
    k.net->tick();
    k.traffic->generate(*k.net);
  }
}

/// Cumulative counters at the end of the pinned prefix.
struct Digest {
  std::uint64_t packets = 0, sum_latency = 0, offered = 0;
  noc::ActivityCounters act;

  std::string text() const {
    char buf[640];
    std::snprintf(buf, sizeof buf,
                  "packets=%" PRIu64 " sum_latency=%" PRIu64 " offered=%" PRIu64
                  " buffer_writes=%" PRIu64 " buffer_reads=%" PRIu64 " alloc_grants=%" PRIu64
                  " xbar_flit_traversals=%" PRIu64 " xbar_credit_traversals=%" PRIu64
                  " pipeline_latches=%" PRIu64 " link_flit_mm=%" PRIu64 " link_credit_mm=%" PRIu64
                  " clocked_inport_cycles=%" PRIu64 " clocked_outport_cycles=%" PRIu64,
                  packets, sum_latency, offered, act.buffer_writes, act.buffer_reads,
                  act.alloc_grants, act.xbar_flit_traversals, act.xbar_credit_traversals,
                  act.pipeline_latches, act.link_flit_mm, act.link_credit_mm,
                  act.clocked_inport_cycles, act.clocked_outport_cycles);
    return buf;
  }
};

Digest take_digest(const noc::MeshNetwork& net) {
  Digest d;
  d.packets = net.stats().total_packets();
  for (const noc::FlowStats& fs : net.stats().per_flow()) d.sum_latency += fs.sum_network_latency;
  d.offered = net.stats().faults().packets_offered;
  d.act = net.stats().activity();
  return d;
}

std::vector<double> barrier_waits(const noc::MeshNetwork& net) {
  std::vector<double> out;
  for (const auto& t : net.shard_telemetry()) out.push_back(t.barrier_wait_seconds);
  return out;
}

/// Per-layer tallies over the traced windows only.
struct TracedTally {
  Histogram tick, generate;
  std::vector<double> window_s;
  double window_ns = 0.0;
  std::uint64_t cycles = 0, flit_hops = 0, packets = 0;
  std::vector<double> barrier_wait_s;  ///< per shard
};

}  // namespace

bool is_kernel_workload(const std::string& name) { return find_kernel(name) != nullptr; }

RunReport run_kernel_workload(const RunOptions& opt) {
  const KernelWorkload& w = *find_kernel(opt.workload);
  const NocConfig cfg = kernel_config(w, opt.seed, w.shards);
  const double nodes = static_cast<double>(cfg.dims().nodes());
  RunReport rep;
  SpanLog spans;

  // --- Set-up: flows + network + workload ----------------------------------
  SetupTimer setup;
  StageTimes stages;
  // Builds into `into`, releasing its previous build first, heap included,
  // so peak RSS is one build's footprint rather than the allocator's
  // leftovers. Returns the build's seconds.
  const auto timed_build = [&](Kernel& into) {
    into = Kernel{};
    malloc_trim(0);
    const auto t0 = Clock::now();
    const std::uint64_t parent = opt.trace ? spans.open() : 0;
    into = opt.trace ? build_kernel_staged(cfg, stages, spans, parent) : build_kernel(cfg);
    const auto t1 = Clock::now();
    if (opt.trace) spans.close(parent, "setup", "setup", t0, t1);
    return seconds_between(t0, t1);
  };
  Kernel k;
  setup.round([&] { return timed_build(k); });

  const auto warm0 = Clock::now();
  run_cycles(k, kWarmup);
  if (opt.trace) spans.add("warmup", "run", warm0, Clock::now());

  // --- Measured windows -----------------------------------------------------
  // With --trace 1, odd windows time every tick and generate call and even
  // windows run bare, so the tracing overhead is measured under the same
  // conditions as the layer numbers.
  std::vector<double> bare_s;
  TracedTally tr;
  tr.barrier_wait_s.assign(static_cast<std::size_t>(k.net->shard_count()), 0.0);
  Digest digest;
  std::uint64_t boundary_flits = 0;
  const std::uint64_t measure_span = opt.trace ? spans.open() : 0;
  const auto m0 = Clock::now();
  int windows = 0;
  for (;; ++windows) {
    if (setup.due()) {
      Kernel spare;
      setup.round([&] { return timed_build(spare); });
    }
    const bool traced = opt.trace && windows % 2 == 1;
    if (!traced) {
      const auto t0 = Clock::now();
      run_cycles(k, w.window);
      bare_s.push_back(seconds_between(t0, Clock::now()));
    } else {
      const std::uint64_t hops0 = k.net->stats().activity().xbar_flit_traversals;
      const std::uint64_t pkts0 = k.traffic->generated();
      const std::vector<double> wait0 = barrier_waits(*k.net);
      const auto t0 = Clock::now();
      auto a = t0;
      for (Cycle c = 0; c < w.window; ++c) {
        k.net->tick();
        const auto b = Clock::now();
        k.traffic->generate(*k.net);
        const auto e = Clock::now();
        tr.tick.add(ns_between(a, b));
        tr.generate.add(ns_between(b, e));
        a = e;
      }
      tr.window_s.push_back(seconds_between(t0, a));
      tr.window_ns += static_cast<double>(ns_between(t0, a));
      spans.add("window", "run", t0, a, measure_span);
      tr.cycles += w.window;
      tr.flit_hops += k.net->stats().activity().xbar_flit_traversals - hops0;
      tr.packets += k.traffic->generated() - pkts0;
      const std::vector<double> wait1 = barrier_waits(*k.net);
      for (std::size_t s = 0; s < wait1.size(); ++s) tr.barrier_wait_s[s] += wait1[s] - wait0[s];
    }
    if (windows + 1 == kDigestWindows) {
      digest = take_digest(*k.net);
      for (const auto& t : k.net->shard_telemetry()) boundary_flits += t.boundary_flits;
    }
    if (windows + 1 >= kDigestWindows && seconds_between(m0, Clock::now()) >= opt.seconds) {
      ++windows;
      break;
    }
  }
  if (opt.trace) spans.close(measure_span, "measure", "run", m0, Clock::now());

  // --- Drain and conservation checks ---------------------------------------
  k.traffic->set_enabled(false);
  const auto d0 = Clock::now();
  Cycle drain_cycles = 0;
  while (!k.net->drained() && drain_cycles < kDrainLimit) {
    run_cycles(k, 1);
    ++drain_cycles;
  }
  const auto d1 = Clock::now();
  if (opt.trace) spans.add("drain", "run", d0, d1);

  const noc::NetworkStats& st = k.net->stats();
  const std::uint64_t offered = st.faults().packets_offered;
  const std::uint64_t delivered = st.total_packets();
  const std::uint64_t dropped = st.faults().packets_dropped;
  rep.attempted = std::max<std::uint64_t>(offered, 1);
  rep.failed = offered - std::min(offered, delivered);
  if (!k.net->drained()) rep.fail("network did not drain within the bound");
  if (offered != delivered + dropped) {
    rep.fail("offered " + std::to_string(offered) + " != delivered " + std::to_string(delivered) +
             " + dropped " + std::to_string(dropped));
  }
  if (offered != k.traffic->generated()) rep.fail("network offered count != workload generated");
  if (k.net->packet_pool().live() != 0) rep.fail("packet pool not empty after the drain");
  if (opt.seed == 1) {
    const std::string want = expected_digest(opt.expected_file, w.name);
    if (want != digest.text()) {
      rep.fail("digest differs from the pinned seed-1 digest; this run: " + std::string(w.name) +
               " " + digest.text());
    }
  }
  const int shard_count = k.net->shard_count();
  const int hpc_max = k.hpc_max;
  const double rss = peak_rss_mb();
  k = Kernel{};

  if (w.shards > 1) {
    // The sharded run must equal the single-shard kernel bit for bit.
    Kernel ref = build_kernel(kernel_config(w, opt.seed, 1));
    run_cycles(ref, kWarmup + static_cast<Cycle>(kDigestWindows) * w.window);
    if (take_digest(*ref.net).text() != digest.text()) {
      rep.fail("sharded digest differs from the single-shard kernel");
    }
  }
  if (!rep.correct) rep.failed = rep.attempted;

  // --- Metrics --------------------------------------------------------------
  const double latency =
      digest.packets ? static_cast<double>(digest.sum_latency) / static_cast<double>(digest.packets)
                     : 0.0;
  rep.add("sim_cycles_per_s", static_cast<double>(w.window) / quantile(bare_s, kRateQuantile), "1/s",
          bare_s.size());
  rep.add("setup_s", median(setup.samples()), "s", setup.samples().size());
  rep.add("peak_rss_mb", rss, "MB");
  rep.add("sim_latency_cycles", latency, "cycles", digest.packets);

  if (opt.trace) {
    const auto nt = tr.tick.count();
    rep.add("noc.tick_ns_p50", tr.tick.quantile(0.5), "ns", nt);
    rep.add("noc.tick_ns_p99", tr.tick.quantile(0.99), "ns", nt);
    rep.add("noc.tick_busy_frac", tr.tick.sum_ns() / tr.window_ns, "1", nt);
    rep.add("noc.ns_per_node_cycle", tr.tick.sum_ns() / (static_cast<double>(tr.cycles) * nodes),
            "ns", nt);
    rep.add("noc.ns_per_flit_hop",
            tr.flit_hops ? tr.tick.sum_ns() / static_cast<double>(tr.flit_hops) : 0.0, "ns",
            tr.flit_hops);
    rep.add("noc.window_ms_p50", 1e3 * median(tr.window_s), "ms", tr.window_s.size());
    rep.add("noc.window_ms_p95", 1e3 * quantile(tr.window_s, 0.95), "ms", tr.window_s.size());
    rep.add("noc.drain_s", seconds_between(d0, d1), "s");
    rep.add("noc.flit_hops", static_cast<double>(digest.act.xbar_flit_traversals), "count");
    rep.add("noc.buffer_writes", static_cast<double>(digest.act.buffer_writes), "count");
    rep.add("noc.alloc_grants", static_cast<double>(digest.act.alloc_grants), "count");
    rep.add("noc.packets_delivered", static_cast<double>(digest.packets), "count");
    rep.add("noc.build_s", median(stages.build), "s", stages.build.size());
    rep.add("smart.presets_s", median(stages.presets), "s", stages.presets.size());
    rep.add("smart.registers_s", median(stages.registers), "s", stages.registers.size());
    rep.add("sim.flows_s", median(stages.flows), "s", stages.flows.size());
    rep.add("sim.workload_s", median(stages.workload), "s", stages.workload.size());
    rep.add("smart.bypass_frac",
            digest.act.xbar_flit_traversals
                ? 1.0 - static_cast<double>(digest.act.buffer_writes) /
                            static_cast<double>(digest.act.xbar_flit_traversals)
                : 0.0,
            "1");
    rep.add("smart.hpc_max", hpc_max, "count");
    const auto ng = tr.generate.count();
    rep.add("sim.generate_ns_p50", tr.generate.quantile(0.5), "ns", ng);
    rep.add("sim.generate_busy_frac", tr.generate.sum_ns() / tr.window_ns, "1", ng);
    rep.add("sim.packets_offered", static_cast<double>(digest.offered), "count");
    rep.add("sim.generate_ns_per_packet",
            tr.packets ? tr.generate.sum_ns() / static_cast<double>(tr.packets) : 0.0, "ns",
            tr.packets);
    rep.add("shard.count", shard_count, "count");
    if (shard_count > 1) {
      double wait = 0.0;
      for (double s : tr.barrier_wait_s) wait += s;
      const auto [lo, hi] = std::minmax_element(tr.barrier_wait_s.begin(), tr.barrier_wait_s.end());
      rep.add("shard.barrier_wait_frac", wait / (shard_count * tr.tick.sum_ns() * 1e-9), "1", nt);
      rep.add("shard.barrier_wait_imbalance", *lo > 0.0 ? *hi / *lo : 0.0, "1", nt);
      const double hops = static_cast<double>(digest.act.xbar_flit_traversals);
      rep.add("shard.boundary_flits", static_cast<double>(boundary_flits), "count");
      rep.add("shard.boundary_frac", hops ? static_cast<double>(boundary_flits) / hops : 0.0, "1");
    }
    rep.add("trace.overhead_frac", median(tr.window_s) / median(bare_s) - 1.0, "1",
            tr.window_s.size());
    spans.write_chrome_json(opt.work_dir + "/" + w.name + "_spans.json");
  }
  return rep;
}

}  // namespace bench_report
