// Golden cross-check for the event-driven simulation core: the active-set
// kernel must produce *bit-identical* results to the seed's full-scan loop
// (the FullScanKernel oracle in full_scan_kernel.hpp) across a matrix of
// designs, HPC_max values, workloads and fault rates. Every RunResult
// field, every activity counter and every per-flow statistic is compared
// exactly - any scheduling divergence (a component skipped while it still
// had work, a credit delivered a cycle early or late) shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "full_scan_kernel.hpp"
#include "helpers.hpp"
#include "mapping/nmap.hpp"
#include "noc/fault_engine.hpp"
#include "noc/faults.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

struct MatrixPoint {
  Design design;            // Mesh or Smart
  int hpc_max;              // SMART single-cycle reach (ignored for Mesh)
  const char* workload;     // "uniform" | "transpose" | "vopd"
  double fault_rate;        // 0 or 0.05
};

std::string point_name(const MatrixPoint& pt) {
  return std::string(design_name(pt.design)) + "/hpc" + std::to_string(pt.hpc_max) + "/" +
         pt.workload + "/faults" + (pt.fault_rate > 0.0 ? "0.05" : "0");
}

NocConfig matrix_config() {
  NocConfig cfg = testing::test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  cfg.drain_timeout = 20000;
  return cfg;
}

noc::FlowSet build_flows(NocConfig& cfg, const MatrixPoint& pt) {
  noc::FlowSet flows;
  if (std::string(pt.workload) == "uniform") {
    flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.02,
                                      noc::TurnModel::XY);
  } else if (std::string(pt.workload) == "transpose") {
    flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.03,
                                      noc::TurnModel::XY);
  } else {
    mapping::MappedApp mapped = mapping::map_app(mapping::SocApp::VOPD, cfg);
    cfg = mapped.cfg;
    flows = std::move(mapped.flows);
  }
  if (pt.fault_rate > 0.0) {
    // The explorer's deterministic fault pattern and reroute, so the golden
    // matrix covers fault-rerouted flow sets too.
    const noc::FaultSet faults = sim::draw_link_faults(cfg.dims(), pt.fault_rate, 7);
    int dropped = 0;
    flows = sim::reroute_around_faults(cfg.dims(), flows, faults, dropped);
  }
  return flows;
}

/// Runs the classic protocol on `net`, through the full-scan oracle when
/// `full_scan` is set.
sim::RunResult run_classic(noc::MeshNetwork& net, bool full_scan, const NocConfig& cfg) {
  sim::BernoulliWorkload traffic(cfg, net.flows(), cfg.seed);
  if (!full_scan) return sim::run_simulation(net, traffic, cfg);
  testing::FullScanKernel oracle(net);
  return sim::run_simulation(oracle, traffic, cfg);
}

sim::RunResult run_once(const MatrixPoint& pt, bool full_scan, noc::NetworkStats* final_stats) {
  NocConfig cfg = matrix_config();
  cfg.hpc_max_override = pt.design == Design::Smart ? pt.hpc_max : 0;
  noc::FlowSet flows = build_flows(cfg, pt);
  if (flows.empty()) {
    return sim::RunResult{};  // all flows dropped by faults: trivially equal
  }
  std::unique_ptr<noc::MeshNetwork> net;
  if (pt.design == Design::Smart) {
    net = std::move(smart::make_smart_network(cfg, std::move(flows)).net);
  } else {
    net = noc::make_baseline_mesh(cfg, std::move(flows));
  }
  const sim::RunResult res = run_classic(*net, full_scan, cfg);
  if (final_stats != nullptr) *final_stats = net->stats();
  return res;
}

void expect_identical_activity(const noc::ActivityCounters& a, const noc::ActivityCounters& b,
                               const std::string& what) {
  EXPECT_EQ(a.buffer_writes, b.buffer_writes) << what;
  EXPECT_EQ(a.buffer_reads, b.buffer_reads) << what;
  EXPECT_EQ(a.alloc_grants, b.alloc_grants) << what;
  EXPECT_EQ(a.xbar_flit_traversals, b.xbar_flit_traversals) << what;
  EXPECT_EQ(a.xbar_credit_traversals, b.xbar_credit_traversals) << what;
  EXPECT_EQ(a.pipeline_latches, b.pipeline_latches) << what;
  EXPECT_EQ(a.link_flit_mm, b.link_flit_mm) << what;
  EXPECT_EQ(a.link_credit_mm, b.link_credit_mm) << what;
  EXPECT_EQ(a.clocked_inport_cycles, b.clocked_inport_cycles) << what;
  EXPECT_EQ(a.clocked_outport_cycles, b.clocked_outport_cycles) << what;
}

void expect_identical_results(const sim::RunResult& a, const sim::RunResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.warmup_cycles, b.warmup_cycles) << what;
  EXPECT_EQ(a.measure_cycles, b.measure_cycles) << what;
  EXPECT_EQ(a.drain_cycles, b.drain_cycles) << what;
  EXPECT_EQ(a.drained, b.drained) << what;
  EXPECT_EQ(a.packets_generated, b.packets_generated) << what;
  EXPECT_EQ(a.packets_delivered, b.packets_delivered) << what;
  // Bit-identical claim: the doubles come from the same integer sums in
  // the same order, so exact equality is the contract, not a tolerance.
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.avg_total_latency, b.avg_total_latency) << what;
  EXPECT_EQ(a.p50_network_latency, b.p50_network_latency) << what;
  EXPECT_EQ(a.p99_network_latency, b.p99_network_latency) << what;
  EXPECT_EQ(a.max_network_latency, b.max_network_latency) << what;
  EXPECT_EQ(a.delivered_packets_per_cycle, b.delivered_packets_per_cycle) << what;
  expect_identical_activity(a.activity, b.activity, what + " [activity]");
}

void expect_identical_flow_stats(const noc::NetworkStats& a, const noc::NetworkStats& b,
                                 const std::string& what) {
  ASSERT_EQ(a.per_flow().size(), b.per_flow().size()) << what;
  for (std::size_t i = 0; i < a.per_flow().size(); ++i) {
    const noc::FlowStats& fa = a.per_flow()[i];
    const noc::FlowStats& fb = b.per_flow()[i];
    const std::string ctx = what + " [flow " + std::to_string(i) + "]";
    EXPECT_EQ(fa.packets, fb.packets) << ctx;
    EXPECT_EQ(fa.flits, fb.flits) << ctx;
    EXPECT_EQ(fa.sum_network_latency, fb.sum_network_latency) << ctx;
    EXPECT_EQ(fa.sum_total_latency, fb.sum_total_latency) << ctx;
    EXPECT_EQ(fa.sum_queue_latency, fb.sum_queue_latency) << ctx;
    EXPECT_EQ(fa.max_network_latency, fb.max_network_latency) << ctx;
  }
}

class GoldenMatrix : public ::testing::TestWithParam<MatrixPoint> {};

TEST_P(GoldenMatrix, ActiveSetMatchesReferenceKernel) {
  const MatrixPoint pt = GetParam();
  noc::NetworkStats stats_active, stats_reference;
  const sim::RunResult active = run_once(pt, /*full_scan=*/false, &stats_active);
  const sim::RunResult reference = run_once(pt, /*full_scan=*/true, &stats_reference);
  const std::string what = point_name(pt);
  ASSERT_TRUE(reference.drained) << what << ": reference run must drain to be a valid golden";
  EXPECT_GT(reference.packets_delivered, 0u) << what << ": matrix point carries no traffic";
  expect_identical_results(active, reference, what);
  expect_identical_flow_stats(stats_active, stats_reference, what);
}

std::vector<MatrixPoint> golden_matrix() {
  std::vector<MatrixPoint> pts;
  for (const char* wl : {"uniform", "transpose", "vopd"}) {
    for (double fr : {0.0, 0.05}) {
      pts.push_back({Design::Mesh, 1, wl, fr});
      pts.push_back({Design::Smart, 1, wl, fr});
      pts.push_back({Design::Smart, 8, wl, fr});
    }
  }
  return pts;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenMatrix, ::testing::ValuesIn(golden_matrix()),
                         [](const ::testing::TestParamInfo<MatrixPoint>& info) {
                           std::string n = point_name(info.param);
                           for (char& c : n) {
                             if (c == '/' || c == '.') c = '_';
                           }
                           return n;
                         });

// --- Online fault schedules --------------------------------------------------
// The runtime fault surgery (preset truncation, in-flight purge, online
// reroute, retransmission) runs between ticks, whoever drives them. These
// points run the same mid-phase fault scenario through a production
// Session and through the full-scan oracle, and compare every result
// field, flow statistic and degradation counter exactly.

struct FaultSchedulePoint {
  Design design;
  int hpc_max;
  const char* schedule;
};

sim::ScenarioSpec fault_spec(const FaultSchedulePoint& pt) {
  NocConfig cfg = matrix_config();
  cfg.hpc_max_override = pt.design == Design::Smart ? pt.hpc_max : 0;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(pt.design, "uniform", 0.05, cfg);
  spec.fault_events = noc::parse_fault_schedule_token(pt.schedule);
  return spec;
}

sim::RunResult run_fault_session(const FaultSchedulePoint& pt, noc::NetworkStats* final_stats) {
  sim::Session session(fault_spec(pt));
  const sim::SessionResult sr = session.run();
  *final_stats = session.network().stats();
  return sim::session_to_run_result(sr);
}

/// The same scenario on the oracle: the network and source Session's owning
/// mode would build, a borrowing Session stepped one cycle at a time, and
/// the schedule's due actions applied after each cycle - where Session
/// fires them. One era, so session time is the network clock.
sim::RunResult run_fault_oracle(const FaultSchedulePoint& pt, noc::NetworkStats* final_stats) {
  const sim::ScenarioSpec spec = fault_spec(pt);
  NocConfig cfg = spec.config;
  const auto factory = sim::WorkloadRegistry::instance().at("uniform");
  noc::FlowSet flows = factory->flows(cfg, 0.05);
  std::unique_ptr<noc::MeshNetwork> net =
      pt.design == Design::Smart ? std::move(smart::make_smart_network(cfg, std::move(flows)).net)
                                 : noc::make_baseline_mesh(cfg, std::move(flows));
  const std::unique_ptr<sim::Workload> source = factory->source(cfg, net->flows(), cfg.seed);
  testing::FullScanKernel oracle(*net);
  sim::Session session(oracle, *source, sim::classic_phases(cfg));
  noc::FaultSchedule faults(spec.fault_events);
  while (!session.done()) {
    session.step(1);
    while (const noc::FaultAction* a = faults.pop_due(session.session_cycles())) {
      net->apply_fault_action(*a);
    }
  }
  *final_stats = net->stats();
  return sim::session_to_run_result(session.run());
}

void expect_identical_fault_counters(const noc::FaultCounters& a, const noc::FaultCounters& b,
                                     const std::string& what) {
  EXPECT_EQ(a.packets_offered, b.packets_offered) << what;
  EXPECT_EQ(a.packets_dropped, b.packets_dropped) << what;
  EXPECT_EQ(a.packets_retransmitted, b.packets_retransmitted) << what;
  EXPECT_EQ(a.flits_purged, b.flits_purged) << what;
  EXPECT_EQ(a.flows_rerouted, b.flows_rerouted) << what;
  EXPECT_EQ(a.flows_failed, b.flows_failed) << what;
  EXPECT_EQ(a.flows_revived, b.flows_revived) << what;
  EXPECT_EQ(a.chains_truncated, b.chains_truncated) << what;
  EXPECT_EQ(a.link_kills, b.link_kills) << what;
  EXPECT_EQ(a.link_repairs, b.link_repairs) << what;
  EXPECT_EQ(a.router_stalls, b.router_stalls) << what;
}

TEST(GoldenFaults, FaultSchedulesMatchAcrossKernels) {
  const FaultSchedulePoint points[] = {
      {Design::Smart, 8, "kill@2700:5:E"},
      {Design::Smart, 1, "glitch@2700:6:N@3300"},
      {Design::Mesh, 1, "kill@2700:5:E+stall@3000:9@3400"},
      {Design::Smart, 8, "kill@2700:5:E+kill@2700:9:E+glitch@3100:1:N@3600"},
  };
  for (const FaultSchedulePoint& pt : points) {
    const std::string what =
        std::string(design_name(pt.design)) + "/hpc" + std::to_string(pt.hpc_max) + "/" +
        pt.schedule;
    noc::NetworkStats stats_active, stats_reference;
    const sim::RunResult active = run_fault_session(pt, &stats_active);
    const sim::RunResult reference = run_fault_oracle(pt, &stats_reference);
    ASSERT_TRUE(reference.ok) << what << ": " << reference.error;
    EXPECT_GT(reference.packets_delivered, 0u) << what;
    expect_identical_results(active, reference, what);
    expect_identical_flow_stats(stats_active, stats_reference, what);
    expect_identical_fault_counters(stats_active.faults(), stats_reference.faults(),
                                    what + " [faults]");
    EXPECT_GE(stats_reference.faults().link_kills, 1u) << what << ": schedule must have fired";
  }
}

// --- Sharded parallel kernel -------------------------------------------------
// The column-sharded kernel (cfg.shard_threads > 1) must be bit-identical
// to the single-threaded active-set kernel at ANY shard count: shard.hpp
// argues why (order-free cycles + deterministic mailbox drain + serial
// epilogue), this matrix pins it. Every point runs through Session so the
// comparison covers the full protocol including online fault surgery, and
// checks RunResult, activity counters, per-flow statistics and all eleven
// fault counters exactly.

struct ShardPoint {
  Design design;          // Mesh or Smart
  int hpc_max;            // SMART single-cycle reach (ignored for Mesh)
  const char* workload;   // "uniform" | "transpose" | "vopd"
  const char* schedule;   // fault schedule token, or nullptr for fault-free
};

std::string shard_point_name(const ShardPoint& pt) {
  return std::string(design_name(pt.design)) + "/hpc" + std::to_string(pt.hpc_max) + "/" +
         pt.workload + (pt.schedule != nullptr ? "/faulted" : "/clean");
}

sim::RunResult run_with_shards(const ShardPoint& pt, int shards,
                               noc::NetworkStats* final_stats) {
  NocConfig cfg = matrix_config();
  cfg.hpc_max_override = pt.design == Design::Smart ? pt.hpc_max : 0;
  cfg.shard_threads = shards;
  const double injection = std::string(pt.workload) == "vopd" ? 1.0 : 0.05;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(pt.design, pt.workload, injection, cfg);
  if (pt.schedule != nullptr) {
    spec.fault_events = noc::parse_fault_schedule_token(pt.schedule);
  }
  sim::Session session(std::move(spec));
  const sim::SessionResult sr = session.run();
  if (final_stats != nullptr) *final_stats = session.network().stats();
  return sim::session_to_run_result(sr);
}

class GoldenShards : public ::testing::TestWithParam<ShardPoint> {};

TEST_P(GoldenShards, ShardCountsAreBitIdentical) {
  const ShardPoint pt = GetParam();
  const std::string base = shard_point_name(pt);
  noc::NetworkStats stats_one;
  const sim::RunResult one = run_with_shards(pt, 1, &stats_one);
  ASSERT_TRUE(one.ok) << base << ": " << one.error;
  EXPECT_GT(one.packets_delivered, 0u) << base << ": matrix point carries no traffic";
  if (pt.schedule != nullptr) {
    EXPECT_GE(stats_one.faults().link_kills, 1u) << base << ": schedule must have fired";
  }
  for (const int shards : {2, 4}) {
    noc::NetworkStats stats_n;
    const sim::RunResult sharded = run_with_shards(pt, shards, &stats_n);
    const std::string what = base + "/shards" + std::to_string(shards);
    ASSERT_TRUE(sharded.ok) << what << ": " << sharded.error;
    expect_identical_results(sharded, one, what);
    expect_identical_flow_stats(stats_n, stats_one, what);
    expect_identical_fault_counters(stats_n.faults(), stats_one.faults(), what + " [faults]");
  }
}

std::vector<ShardPoint> shard_matrix() {
  // Fires mid-measure (warmup 500 + measure 4000): a kill that forces an
  // online reroute plus a glitch that repairs, so the sharded runs cover
  // purge, retransmission and the post-surgery active-set rebuild.
  constexpr const char* kSchedule = "kill@2700:5:E+glitch@3000:6:N@3400";
  std::vector<ShardPoint> pts;
  for (const char* wl : {"uniform", "transpose", "vopd"}) {
    for (const char* sched : {static_cast<const char*>(nullptr), kSchedule}) {
      pts.push_back({Design::Mesh, 1, wl, sched});
      pts.push_back({Design::Smart, 8, wl, sched});
    }
  }
  return pts;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenShards, ::testing::ValuesIn(shard_matrix()),
                         [](const ::testing::TestParamInfo<ShardPoint>& info) {
                           std::string n = shard_point_name(info.param);
                           for (char& c : n) {
                             if (c == '/' || c == '.') c = '_';
                           }
                           return n;
                         });

// --- Mid-size mesh with long active lists ------------------------------------
// A 24x24 SMART mesh under the kernel benchmark's traffic shape: every node
// sends to four seeded destinations within Manhattan radius 4, 0.03
// flits/node/cycle in total. Hundreds of routers are active each cycle, so
// the phase loops' look-ahead prefetches run well inside their bounds and
// at the list ends; the active-set kernel, the full-scan oracle and two
// shards must still agree exactly.

noc::FlowSet local_radius_flows(const NocConfig& cfg) {
  constexpr int kRadius = 4;
  constexpr int kFlowsPerNode = 4;
  const MeshDims dims = cfg.dims();
  const double pkts_per_flow_cycle = 0.03 / cfg.flits_per_packet() / kFlowsPerNode;
  noc::FlowSet out;
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    Xoshiro256 rng = make_stream(cfg.seed, 0x10CA1ULL + static_cast<std::uint64_t>(s));
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

enum class Kernel { ActiveSet, FullScan, TwoShards };

sim::RunResult run_local_24x24(Kernel kernel, noc::NetworkStats* final_stats) {
  NocConfig cfg = matrix_config();
  cfg.width = 24;
  cfg.height = 24;
  cfg.measure_cycles = 3000;
  cfg.shard_threads = kernel == Kernel::TwoShards ? 2 : 1;
  cfg.fit_derived();
  cfg.validate();
  auto net = std::move(smart::make_smart_network(cfg, local_radius_flows(cfg)).net);
  EXPECT_EQ(net->shard_count(), cfg.shard_threads);
  const sim::RunResult res = run_classic(*net, kernel == Kernel::FullScan, cfg);
  *final_stats = net->stats();
  EXPECT_EQ(net->packet_pool().live(), 0u);
  return res;
}

TEST(GoldenMidSize, LocalTraffic24x24MatchesAcrossKernels) {
  noc::NetworkStats stats_active, stats_reference, stats_sharded;
  const sim::RunResult active = run_local_24x24(Kernel::ActiveSet, &stats_active);
  const sim::RunResult reference = run_local_24x24(Kernel::FullScan, &stats_reference);
  const sim::RunResult sharded = run_local_24x24(Kernel::TwoShards, &stats_sharded);
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_TRUE(reference.drained);
  EXPECT_GT(reference.packets_delivered, 1000u);
  expect_identical_results(active, reference, "24x24/active-vs-reference");
  expect_identical_flow_stats(stats_active, stats_reference, "24x24/active-vs-reference");
  expect_identical_results(sharded, active, "24x24/shards2-vs-active");
  expect_identical_flow_stats(stats_sharded, stats_active, "24x24/shards2-vs-active");
}

// The O(1) drain check must agree with a from-scratch component scan at
// every step of a drain, not just at the end (the invariant the active-set
// compaction maintains).
TEST(GoldenDrain, CounterCheckMatchesFullScan) {
  NocConfig cfg = matrix_config();
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                         noc::TurnModel::XY);
  auto net = noc::make_baseline_mesh(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  EXPECT_TRUE(net->drained());
  for (Cycle c = 0; c < 2000; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  traffic.set_enabled(false);
  const MeshDims dims = cfg.dims();
  bool drained = net->drained();
  for (Cycle c = 0; c < cfg.drain_timeout && !drained; ++c) {
    bool scan = true;
    for (NodeId n = 0; n < dims.nodes(); ++n) {
      if (net->router(n).has_traffic() || !net->nic(n).idle()) scan = false;
    }
    // While credits are in flight the counter check may be stricter than
    // the component scan; it must never report drained while a component
    // still holds work.
    if (!scan) {
      EXPECT_FALSE(net->drained()) << "cycle " << c;
    }
    net->tick();
    drained = net->drained();
  }
  ASSERT_TRUE(drained);
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    EXPECT_FALSE(net->router(n).has_traffic()) << "router " << n;
    EXPECT_TRUE(net->nic(n).idle()) << "NIC " << n;
  }
}

}  // namespace
}  // namespace smartnoc
