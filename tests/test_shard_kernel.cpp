// Unit tests for the sharded parallel cycle kernel: column partitioning,
// cross-shard SMART bypass chains (the hard case - a single-cycle multi-hop
// traversal spanning several shards), the armed-at-one-shard bench path,
// parallel-vs-serial bit identity under load, offers still pending in
// their shard at a fault or a drain check, per-shard telemetry and the
// span-tracer lanes. The broad bit-identity matrix lives in
// test_golden_determinism.cpp (GoldenShards); this file covers the kernel's
// edges directly. Also the TSan target: ParallelMatchesSingleShard drives
// the worker threads, the spin barrier and the mailbox protocol under load.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "obs/spans.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

/// An 8-wide mesh so four column shards each own two columns.
NocConfig mesh8_config() {
  NocConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.fit_derived();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_timeout = 20000;
  return cfg;
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b, const std::string& what) {
  EXPECT_EQ(a.packets_generated, b.packets_generated) << what;
  EXPECT_EQ(a.packets_delivered, b.packets_delivered) << what;
  EXPECT_EQ(a.drained, b.drained) << what;
  EXPECT_EQ(a.drain_cycles, b.drain_cycles) << what;
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.avg_total_latency, b.avg_total_latency) << what;
  EXPECT_EQ(a.p99_network_latency, b.p99_network_latency) << what;
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes) << what;
  EXPECT_EQ(a.activity.xbar_flit_traversals, b.activity.xbar_flit_traversals) << what;
  EXPECT_EQ(a.activity.link_flit_mm, b.activity.link_flit_mm) << what;
  EXPECT_EQ(a.activity.link_credit_mm, b.activity.link_credit_mm) << what;
  EXPECT_EQ(a.activity.clocked_inport_cycles, b.activity.clocked_inport_cycles) << what;
}

void expect_same_flows(const noc::NetworkStats& a, const noc::NetworkStats& b,
                       const std::string& what) {
  ASSERT_EQ(a.per_flow().size(), b.per_flow().size()) << what;
  for (std::size_t i = 0; i < a.per_flow().size(); ++i) {
    const std::string ctx = what + " [flow " + std::to_string(i) + "]";
    EXPECT_EQ(a.per_flow()[i].packets, b.per_flow()[i].packets) << ctx;
    EXPECT_EQ(a.per_flow()[i].sum_network_latency, b.per_flow()[i].sum_network_latency) << ctx;
    EXPECT_EQ(a.per_flow()[i].max_network_latency, b.per_flow()[i].max_network_latency) << ctx;
  }
}

TEST(ShardPartition, ColumnBlocksAndWidthClamp) {
  NocConfig cfg = mesh8_config();
  cfg.shard_threads = 4;
  auto net = noc::make_baseline_mesh(cfg, testing::one_flow(cfg, 0, 7));
  ASSERT_EQ(net->shard_count(), 4);
  const MeshDims dims = cfg.dims();
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    // Two columns per shard, whole columns only, monotone west-to-east.
    EXPECT_EQ(net->shard_of(n), dims.coord(n).x / 2) << "node " << n;
  }
  // The knob clamps to the mesh width: a 4-wide mesh caps at 4 shards.
  NocConfig narrow = testing::test_config();
  narrow.shard_threads = 256;
  auto clamped = noc::make_baseline_mesh(narrow, testing::one_flow(narrow, 0, 15));
  EXPECT_EQ(clamped->shard_count(), 4);
}

/// Flits a packet of flow `id` ships across shard boundaries: one per flit
/// for every segment of its path (source NIC -> stops -> destination NIC)
/// whose endpoint another shard owns than the segment's origin.
std::uint64_t expected_boundary_flits(const noc::MeshNetwork& net, FlowId id) {
  const noc::Flow& f = net.flows().at(id);
  std::vector<NodeId> path{f.src};
  for (const NodeId stop : net.flow_info(id).stops) path.push_back(stop);
  path.push_back(f.dst);
  std::uint64_t crossings = 0;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    crossings += net.shard_of(path[k]) != net.shard_of(path[k + 1]) ? 1 : 0;
  }
  return crossings * static_cast<std::uint64_t>(net.config().flits_per_packet());
}

std::uint64_t boundary_flits(const noc::MeshNetwork& net) {
  std::uint64_t total = 0;
  for (const auto& t : net.shard_telemetry()) total += t.boundary_flits;
  return total;
}

// A SMART bypass chain that crosses shard boundaries. Presets are static
// within an era, so the whole multi-hop traversal resolves sender-side
// into ONE mailbox event per flit and segment - the zero-load single-cycle
// latency must survive sharding exactly, and each flit crosses once per
// segment whose ends two shards own. A shorter reach splits the row into
// stops, some segments inside a shard and some across.
TEST(ShardKernel, BypassChainAcrossShardBoundaries) {
  for (const int hpc : {8, 3}) {
    SCOPED_TRACE("hpc_max " + std::to_string(hpc));
    NocConfig cfg = mesh8_config();
    cfg.hpc_max_override = hpc;  // 8: reach covers the whole 7-hop row
    cfg.shard_threads = 4;
    auto made = smart::make_smart_network(cfg, testing::one_flow(cfg, 0, 7));
    noc::MeshNetwork& net = *made.net;
    ASSERT_EQ(net.shard_count(), 4);
    ASSERT_EQ(net.shard_of(0), 0);
    ASSERT_EQ(net.shard_of(7), 3);
    const double latency = testing::single_packet_latency(net, 0);
    const double stops = static_cast<double>(net.flow_info(0).stops.size());
    EXPECT_EQ(latency, 1.0 + 3.0 * stops);  // zero-load SMART law, unchanged
    EXPECT_TRUE(testing::run_to_drain(net));
    const std::uint64_t expected = expected_boundary_flits(net, 0);
    EXPECT_GE(expected, static_cast<std::uint64_t>(cfg.flits_per_packet()));
    EXPECT_EQ(boundary_flits(net), expected) << "a 0->7 traversal ships flits across shards";
  }
}

// A flow whose whole path one shard owns ships nothing through a mailbox.
TEST(ShardKernel, SameShardFlowShipsNoBoundaryFlits) {
  NocConfig cfg = mesh8_config();
  cfg.shard_threads = 4;
  auto made = smart::make_smart_network(cfg, testing::one_flow(cfg, 8, 9));
  noc::MeshNetwork& net = *made.net;
  ASSERT_EQ(net.shard_of(8), net.shard_of(9));
  EXPECT_GT(testing::single_packet_latency(net, 0), 0.0);
  EXPECT_TRUE(testing::run_to_drain(net));
  EXPECT_EQ(expected_boundary_flits(net, 0), 0u);
  EXPECT_EQ(boundary_flits(net), 0u);
}

// force_sharded_path arms the full protocol (NIC sinks, mailboxes, serial
// epilogue) at one shard - the configuration the overhead bench measures.
// It must be invisible in the results.
TEST(ShardKernel, ArmedSingleShardIsBitIdentical) {
  auto run = [](bool armed, noc::NetworkStats* stats) {
    NocConfig cfg = testing::test_config();
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 2500;
    auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.05,
                                           noc::TurnModel::XY);
    auto net = noc::make_baseline_mesh(cfg, std::move(flows));
    if (armed) net->force_sharded_path(true);
    sim::BernoulliWorkload traffic(cfg, net->flows(), cfg.seed);
    const sim::RunResult res = sim::run_simulation(*net, traffic, cfg);
    *stats = net->stats();
    return res;
  };
  noc::NetworkStats plain_stats, armed_stats;
  const sim::RunResult plain = run(false, &plain_stats);
  const sim::RunResult armed = run(true, &armed_stats);
  ASSERT_GT(plain.packets_delivered, 0u);
  expect_same_run(armed, plain, "armed@1shard");
  expect_same_flows(armed_stats, plain_stats, "armed@1shard");
}

// The TSan target: real worker threads, spin barrier, mailboxes and the
// epilogue under sustained SMART load on a 16x16, against the serial kernel.
TEST(ShardKernel, ParallelMatchesSingleShard) {
  auto run = [](int shards, noc::NetworkStats* stats) {
    NocConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    cfg.fit_derived();
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1500;
    cfg.drain_timeout = 20000;
    cfg.hpc_max_override = 8;
    cfg.shard_threads = shards;
    auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.04,
                                           noc::TurnModel::XY);
    auto made = smart::make_smart_network(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, made.net->flows(), cfg.seed);
    const sim::RunResult res = sim::run_simulation(*made.net, traffic, cfg);
    *stats = made.net->stats();
    return res;
  };
  noc::NetworkStats serial_stats, parallel_stats;
  const sim::RunResult serial = run(1, &serial_stats);
  const sim::RunResult parallel = run(4, &parallel_stats);
  ASSERT_GT(serial.packets_delivered, 0u);
  expect_same_run(parallel, serial, "16x16@4shards");
  expect_same_flows(parallel_stats, serial_stats, "16x16@4shards");
}

/// Counts the flits consumed at NICs. Any observer makes a sharded network
/// run its passes shard by shard on the calling thread.
struct EjectCounter final : noc::TraceObserver {
  std::uint64_t ejected = 0;
  void flit_on_link(NodeId, Dir, const noc::FlitRef&, const noc::PacketPool&, Cycle) override {}
  void flit_latched(bool is_nic, NodeId, const noc::FlitRef&, const noc::PacketPool&,
                    Cycle) override {
    ejected += is_nic ? 1 : 0;
  }
};

// With an observer attached, the four shards' passes run in shard order on
// one thread, so a flit or credit routed through the wrong shard changes
// the result on every run, not only under some thread timings: a credit
// filed in another shard's wheel than its origin's reaches the origin
// router on the wrong side of that router's Switch Allocation. The load
// (uniform random on an 8x8 SMART mesh, 0.1 flits/node/cycle) keeps free
// VCs scarce enough that a credit's timing shows in the latencies.
TEST(ShardKernel, ObservedShardsMatchSingleShard) {
  auto run = [](int shards, EjectCounter* obs, noc::NetworkStats* stats) {
    NocConfig cfg = mesh8_config();
    cfg.hpc_max_override = 8;
    cfg.shard_threads = shards;
    auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.1,
                                           noc::TurnModel::XY);
    auto made = smart::make_smart_network(cfg, std::move(flows));
    made.net->set_observer(obs);
    sim::BernoulliWorkload traffic(cfg, made.net->flows(), cfg.seed);
    const sim::RunResult res = sim::run_simulation(*made.net, traffic, cfg);
    made.net->set_observer(nullptr);
    *stats = made.net->stats();
    return res;
  };
  noc::NetworkStats serial_stats, sharded_stats;
  EjectCounter serial_obs, sharded_obs;
  const sim::RunResult serial = run(1, &serial_obs, &serial_stats);
  const sim::RunResult sharded = run(4, &sharded_obs, &sharded_stats);
  ASSERT_GT(serial.packets_delivered, 0u);
  expect_same_run(sharded, serial, "8x8@4shards observed");
  expect_same_flows(sharded_stats, serial_stats, "8x8@4shards observed");
  EXPECT_GT(serial_obs.ejected, 0u);
  EXPECT_EQ(sharded_obs.ejected, serial_obs.ejected);
}

/// What an offer-then-fault run leaves behind, for comparing shard counts.
struct OfferFaultRun {
  bool drained = false;
  Cycle end = 0;
  noc::FaultCounters faults;
  noc::ActivityCounters act;
  std::vector<std::uint64_t> packets;   ///< per flow
  std::vector<std::uint64_t> latency;   ///< per flow, summed network latency
};

// Under the sharded protocol an offer reaches its NIC's queue at the top of
// the owning shard's next pass A. A fault between the offer and that tick
// must still see the packet queued: the reroute rewrites queued routes and
// the purge re-queues packets in front of them. Packets offered on flow 0
// (row 0, west to east across the shard boundary) just before its row's
// link dies must come out exactly as on one shard.
TEST(ShardKernel, OfferThenFaultBeforeTickMatchesSingleShard) {
  auto run = [](int shards) {
    NocConfig cfg = mesh8_config();
    cfg.shard_threads = shards;
    noc::FlowSet flows;
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 7}, {8, 15}, {3, 59}}) {
      flows.add(src, dst, 100.0, noc::xy_path(cfg.dims(), src, dst));
    }
    auto made = smart::make_smart_network(cfg, std::move(flows));
    noc::MeshNetwork& net = *made.net;
    net.offer_packet(0, net.now());
    net.offer_packet(1, net.now());
    net.offer_packet(2, net.now());
    for (int c = 0; c < 3; ++c) net.tick();
    for (int k = 0; k < 3; ++k) net.offer_packet(0, net.now());
    net.offer_packet(1, net.now());
    noc::FaultAction kill;
    kill.kind = noc::FaultAction::Kind::Kill;
    kill.node = 2;  // row 0, on flow 0's route
    kill.dir = Dir::East;
    net.apply_fault_action(kill);
    OfferFaultRun r;
    r.drained = testing::run_to_drain(net);
    r.end = net.now();
    r.faults = net.stats().faults();
    r.act = net.stats().activity();
    for (const noc::FlowStats& fs : net.stats().per_flow()) {
      r.packets.push_back(fs.packets);
      r.latency.push_back(fs.sum_network_latency);
    }
    return r;
  };
  const OfferFaultRun one = run(1);
  const OfferFaultRun two = run(2);
  ASSERT_TRUE(one.drained);
  EXPECT_EQ(one.faults.flows_rerouted, 1u);
  EXPECT_EQ(one.faults.packets_dropped, 0u);
  EXPECT_EQ(one.packets, (std::vector<std::uint64_t>{4, 2, 1}));
  EXPECT_EQ(two.drained, one.drained);
  EXPECT_EQ(two.end, one.end);
  EXPECT_EQ(two.packets, one.packets);
  EXPECT_EQ(two.latency, one.latency);
  EXPECT_EQ(two.faults.packets_offered, one.faults.packets_offered);
  EXPECT_EQ(two.faults.packets_retransmitted, one.faults.packets_retransmitted);
  EXPECT_EQ(two.faults.flits_purged, one.faults.flits_purged);
  EXPECT_EQ(two.faults.flows_rerouted, one.faults.flows_rerouted);
  EXPECT_EQ(two.faults.chains_truncated, one.faults.chains_truncated);
  EXPECT_EQ(two.act.buffer_writes, one.act.buffer_writes);
  EXPECT_EQ(two.act.xbar_flit_traversals, one.act.xbar_flit_traversals);
  EXPECT_EQ(two.act.link_flit_mm, one.act.link_flit_mm);
}

// An offer that its shard has not yet enqueued is a queued packet: the
// network is not drained and the stall report counts it, until the next
// tick enqueues it and the packet drains through the fabric.
TEST(ShardKernel, PendingOffersKeepTheNetworkUndrained) {
  NocConfig cfg = mesh8_config();
  cfg.shard_threads = 2;
  auto made = smart::make_smart_network(cfg, testing::one_flow(cfg, 6, 1));
  noc::MeshNetwork& net = *made.net;
  ASSERT_TRUE(net.drained());
  net.offer_packet(0, net.now());
  net.offer_packet(0, net.now());
  EXPECT_FALSE(net.drained());
  EXPECT_EQ(net.stall_report().queued_packets, 2u);
  EXPECT_EQ(net.packet_pool().live(), 2u);
  net.tick();
  EXPECT_FALSE(net.drained());
  EXPECT_TRUE(testing::run_to_drain(net));
  EXPECT_EQ(net.stats().total_packets(), 2u);
  EXPECT_EQ(net.packet_pool().live(), 0u);
}

TEST(ShardKernel, TelemetryCountsTicks) {
  NocConfig cfg = mesh8_config();
  cfg.shard_threads = 2;
  auto net = noc::make_baseline_mesh(cfg, testing::one_flow(cfg, 0, 63));
  constexpr Cycle kTicks = 257;
  for (Cycle c = 0; c < kTicks; ++c) net->tick();
  const auto telemetry = net->shard_telemetry();
  ASSERT_EQ(telemetry.size(), 2u);
  for (std::size_t k = 0; k < telemetry.size(); ++k) {
    EXPECT_EQ(telemetry[k].ticks, kTicks) << "shard " << k;
    EXPECT_GE(telemetry[k].barrier_wait_seconds, 0.0) << "shard " << k;
  }
}

TEST(ShardKernel, SpanTracerGetsOneNamedLanePerShard) {
  NocConfig cfg = mesh8_config();
  cfg.shard_threads = 4;
  auto net = noc::make_baseline_mesh(cfg, testing::one_flow(cfg, 0, 7));
  obs::SpanTracer tracer;
  net->set_span_tracer(&tracer, /*base_lane=*/2);
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(tracer.lane_label(2 + lane), "shard " + std::to_string(lane));
  }
  for (Cycle c = 0; c < 64; ++c) net->tick();
  net->set_span_tracer(nullptr);  // detach flushes the partial tick batches
  const auto events = tracer.events();
  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_GE(ev.lane, 2);
    EXPECT_LE(ev.lane, 5);
    EXPECT_EQ(ev.category, "shard");
  }
}

}  // namespace
}  // namespace smartnoc
