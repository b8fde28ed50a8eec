// Runtime fault engine: the compact token grammar, schedule expansion,
// online surgery on a live network (mid-phase kill with packet-fate
// conservation), end-to-end recovery, graceful degradation and revival,
// router stalls, the liveness watchdog's structured error, and fault-aware
// rerouting on non-square meshes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "noc/fault_engine.hpp"
#include "noc/faults.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using noc::FaultAction;
using noc::FaultEventSpec;
using noc::FaultKind;
using noc::FaultSchedule;

// --- Token grammar -----------------------------------------------------------

TEST(FaultToken, RoundTripsEveryKind) {
  const std::string tok = "kill@2000:5:E+glitch@2100:3:N@2500+stall@3000:7@3200";
  const auto events = noc::parse_fault_schedule_token(tok);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::LinkKill);
  EXPECT_EQ(events[0].cycle, 2000u);
  EXPECT_EQ(events[0].node, 5);
  EXPECT_EQ(events[0].dir, Dir::East);
  EXPECT_EQ(events[1].kind, FaultKind::LinkGlitch);
  EXPECT_EQ(events[1].until, 2500u);
  EXPECT_EQ(events[2].kind, FaultKind::RouterStall);
  EXPECT_EQ(events[2].node, 7);
  EXPECT_EQ(events[2].until, 3200u);
  EXPECT_EQ(noc::format_fault_schedule_token(events), tok);

  EXPECT_TRUE(noc::parse_fault_schedule_token("none").empty());
  EXPECT_TRUE(noc::parse_fault_schedule_token("").empty());
  EXPECT_EQ(noc::format_fault_schedule_token({}), "none");
}

TEST(FaultToken, RejectsMalformedTokens) {
  EXPECT_THROW(noc::parse_fault_schedule_token("explode@1:2:E"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@2000:5"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@2000:5:E@3000"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("glitch@2000:5:E"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@20x0:5:E"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@2000:5:Q"), ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("stall@3000:7"), ConfigError);
}

TEST(FaultEvent, ValidatesAgainstMesh) {
  const MeshDims dims(4, 4);
  const auto ok = noc::parse_fault_schedule_token("kill@100:5:E");
  EXPECT_NO_THROW(ok.front().validate(dims));

  // Node off the mesh.
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@100:99:E").front().validate(dims),
               ConfigError);
  // Node 3 is the NE... east edge of row 0: no East neighbor.
  EXPECT_THROW(noc::parse_fault_schedule_token("kill@100:3:E").front().validate(dims),
               ConfigError);
  // Repairs and releases must come after the fault fires.
  EXPECT_THROW(noc::parse_fault_schedule_token("glitch@200:5:E@200").front().validate(dims),
               ConfigError);
  EXPECT_THROW(noc::parse_fault_schedule_token("stall@300:7@250").front().validate(dims),
               ConfigError);
  // The same events are fine on a mesh that has the links.
  EXPECT_NO_THROW(noc::parse_fault_schedule_token("glitch@200:5:E@300").front().validate(dims));
  EXPECT_NO_THROW(noc::parse_fault_schedule_token("stall@300:7@350").front().validate(dims));
}

// --- Schedule expansion ------------------------------------------------------

TEST(FaultScheduleTest, GlitchExpandsToKillAndRepairInCycleOrder) {
  const FaultSchedule sched(noc::parse_fault_schedule_token("glitch@2100:3:N@2500+kill@2000:5:E"));
  ASSERT_EQ(sched.size(), 3u);
  const auto& a = sched.actions();
  EXPECT_EQ(a[0].kind, FaultAction::Kind::Kill);   // kill@2000
  EXPECT_EQ(a[0].cycle, 2000u);
  EXPECT_EQ(a[1].kind, FaultAction::Kind::Kill);   // glitch onset @2100
  EXPECT_EQ(a[1].cycle, 2100u);
  EXPECT_EQ(a[2].kind, FaultAction::Kind::Repair); // glitch repair @2500
  EXPECT_EQ(a[2].cycle, 2500u);
  EXPECT_EQ(sched.next_cycle(), 2000u);
}

TEST(FaultScheduleTest, PopDueDrainsActionsInOrder) {
  FaultSchedule sched(noc::parse_fault_schedule_token("kill@100:0:E+kill@100:1:E+kill@200:2:E"));
  EXPECT_EQ(sched.pop_due(50), nullptr);
  const FaultAction* first = sched.pop_due(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->node, 0);
  const FaultAction* second = sched.pop_due(100);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->node, 1);
  EXPECT_EQ(sched.pop_due(100), nullptr);  // third not due yet
  EXPECT_EQ(sched.next_cycle(), 200u);
  ASSERT_NE(sched.pop_due(500), nullptr);
  EXPECT_EQ(sched.next_cycle(), FaultSchedule::kNever);
}

TEST(FaultScheduleTest, RandomCampaignIsDeterministicInItsSeed) {
  const MeshDims dims(4, 4);
  const FaultSchedule a = FaultSchedule::random(dims, 500, 10'000, 42, 300);
  const FaultSchedule b = FaultSchedule::random(dims, 500, 10'000, 42, 300);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u) << "mtbf 500 over a 10k horizon must draw events";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.actions()[i].cycle, b.actions()[i].cycle) << i;
    EXPECT_EQ(a.actions()[i].node, b.actions()[i].node) << i;
    EXPECT_EQ(static_cast<int>(a.actions()[i].kind), static_cast<int>(b.actions()[i].kind)) << i;
  }
  // Kills only (repair_after = 0) expand 1:1; glitches expand 2:1.
  const FaultSchedule kills = FaultSchedule::random(dims, 500, 10'000, 42, 0);
  for (const FaultAction& act : kills.actions()) {
    EXPECT_EQ(act.kind, FaultAction::Kind::Kill);
  }
}

// --- Scenario round-trip -----------------------------------------------------

TEST(FaultScenario, EventsAndRecoveryKnobsRoundTripTextAndJson) {
  NocConfig cfg = testing::test_config();
  cfg.watchdog_window = 5000;
  cfg.retry_limit = 5;
  cfg.retry_backoff_cycles = 128;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "uniform", 0.05, cfg);
  spec.fault_events =
      noc::parse_fault_schedule_token("kill@2500:5:E+glitch@3000:9:N@3500+stall@4000:7@4200");

  const sim::ScenarioSpec from_text = sim::parse_scenario(sim::serialize_scenario_text(spec));
  EXPECT_EQ(from_text, spec);
  EXPECT_EQ(from_text.config.watchdog_window, 5000u);
  EXPECT_EQ(from_text.config.retry_limit, 5);
  EXPECT_EQ(from_text.config.retry_backoff_cycles, 128u);

  const sim::ScenarioSpec from_json = sim::parse_scenario(sim::serialize_scenario_json(spec));
  EXPECT_EQ(from_json, spec);

  // Events referencing links off the declared mesh fail validation.
  sim::ScenarioSpec bad = spec;
  bad.fault_events = noc::parse_fault_schedule_token("kill@2500:99:E");
  EXPECT_THROW(bad.validate(), ConfigError);
}

// --- Online surgery on a live network ---------------------------------------

FaultAction kill_link(NodeId node, Dir dir) {
  FaultAction a;
  a.kind = FaultAction::Kind::Kill;
  a.node = node;
  a.dir = dir;
  return a;
}

FaultAction repair_link(NodeId node, Dir dir) {
  FaultAction a;
  a.kind = FaultAction::Kind::Repair;
  a.node = node;
  a.dir = dir;
  return a;
}

std::unique_ptr<noc::MeshNetwork> smart_net(NocConfig& cfg, noc::FlowSet flows) {
  return std::move(smart::make_smart_network(cfg, std::move(flows)).net);
}

TEST(FaultSurgery, MidRunKillConservesPacketFate) {
  NocConfig cfg = testing::test_config();
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.05,
                                         noc::TurnModel::XY);
  auto net = smart_net(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  for (Cycle c = 0; c < 2000; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  net->apply_fault_action(kill_link(5, Dir::East));
  for (Cycle c = 0; c < 2000; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  traffic.set_enabled(false);
  ASSERT_TRUE(testing::run_to_drain(*net, 30'000));

  // Every offered packet is delivered or dropped - and nothing leaks: the
  // pool holds zero live payloads once the network reports drained.
  EXPECT_EQ(net->packet_pool().live(), 0u);
  const noc::FaultCounters& fc = net->stats().faults();
  EXPECT_EQ(fc.link_kills, 1u);
  EXPECT_GT(fc.packets_offered, 0u);
  EXPECT_EQ(fc.packets_offered, net->stats().total_packets() + fc.packets_dropped);
}

TEST(FaultSurgery, KillOnThePathReroutesTheFlowOnline) {
  NocConfig cfg = testing::test_config();
  auto net = smart_net(cfg, testing::one_flow(cfg, 0, 3));  // XY: 0 -E-> 1 -E-> 2 -E-> 3
  EXPECT_GT(testing::single_packet_latency(*net, 0), 0.0);

  net->apply_fault_action(kill_link(1, Dir::East));
  const noc::FaultCounters& fc = net->stats().faults();
  EXPECT_EQ(fc.flows_rerouted, 1u);
  EXPECT_EQ(fc.flows_failed, 0u);
  EXPECT_TRUE(net->live_faults().is_failed(1, Dir::East));

  // The rerouted path delivers without a rebuild.
  EXPECT_GT(testing::single_packet_latency(*net, 0), 0.0);
  EXPECT_EQ(net->stats().total_packets(), 2u);
  EXPECT_EQ(net->packet_pool().live(), 0u);
}

TEST(FaultSurgery, IsolationDegradesGracefullyAndRepairRevives) {
  NocConfig cfg = testing::test_config();
  cfg.width = 2;
  cfg.height = 2;
  cfg.fit_derived();
  cfg.validate();
  auto net = smart_net(cfg, testing::one_flow(cfg, 0, 1));

  // Cut both of node 0's outgoing links: the destination is unreachable and
  // the flow degrades instead of wedging the network.
  net->apply_fault_action(kill_link(0, Dir::East));
  net->apply_fault_action(kill_link(0, Dir::North));
  const noc::FaultCounters& fc = net->stats().faults();
  EXPECT_GE(fc.flows_failed, 1u);

  // Offers to a degraded flow are accounted as drops, not lost silently.
  net->offer_packet(0, net->now());
  for (Cycle c = 0; c < 200; ++c) net->tick();
  EXPECT_EQ(net->stats().total_packets(), 0u);
  EXPECT_GE(fc.packets_dropped, 1u);
  EXPECT_EQ(net->packet_pool().live(), 0u);

  // A repair restores connectivity (0 -N-> 2 -E-> 3 -S-> 1) and revives
  // the degraded flow online.
  net->apply_fault_action(repair_link(0, Dir::North));
  EXPECT_GE(fc.flows_revived, 1u);
  EXPECT_GT(testing::single_packet_latency(*net, 0), 0.0);
  EXPECT_EQ(net->stats().total_packets(), 1u);
}

TEST(FaultSurgery, StallFreezesARouterUntilRelease) {
  // Baseline mesh: every hop stops and needs a switch grant, so the stall
  // gate is on the flit's path (SMART bypass could carry it past router 1).
  NocConfig cfg = testing::test_config();
  auto net = noc::make_baseline_mesh(cfg, testing::one_flow(cfg, 0, 5));

  FaultAction stall;
  stall.kind = FaultAction::Kind::Stall;
  stall.node = 1;
  stall.until = net->now() + 500;
  net->apply_fault_action(stall);
  EXPECT_EQ(net->stats().faults().router_stalls, 1u);

  net->offer_packet(0, net->now());
  for (Cycle c = 0; c < 400; ++c) net->tick();
  EXPECT_EQ(net->stats().total_packets(), 0u) << "stalled router must hold the flit";
  for (Cycle c = 0; c < 300; ++c) net->tick();
  EXPECT_EQ(net->stats().total_packets(), 1u) << "release must let the flit proceed";
  EXPECT_EQ(net->packet_pool().live(), 0u);
}

// --- Fault-aware rerouting on non-square meshes ------------------------------

TEST(FaultRouting, NonSquareMeshesRouteAroundCuts) {
  for (const MeshDims dims : {MeshDims(3, 5), MeshDims(2, 7), MeshDims(7, 2)}) {
    noc::FaultSet faults;
    faults.fail_link(dims, 0, Dir::East);
    for (NodeId s = 0; s < dims.nodes(); ++s) {
      for (NodeId d = 0; d < dims.nodes(); ++d) {
        if (s == d) continue;
        const auto path = noc::route_around_faults(dims, s, d, noc::TurnModel::XY, faults);
        ASSERT_TRUE(path.has_value())
            << dims.width() << "x" << dims.height() << " " << s << "->" << d
            << ": one cut link cannot disconnect a mesh with 2+ rows and columns";
        EXPECT_TRUE(faults.path_alive(dims, *path));
      }
    }
  }
}

TEST(FaultRouting, FullColumnCutPartitionsNonSquareMesh) {
  // 7x2 mesh; cutting both East links between columns 2 and 3 splits it.
  const MeshDims dims(7, 2);
  noc::FaultSet faults;
  faults.fail_link(dims, dims.id({2, 0}), Dir::East);
  faults.fail_link(dims, dims.id({2, 1}), Dir::East);
  auto side = [&](NodeId n) { return dims.coord(n).x <= 2 ? 0 : 1; };
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    for (NodeId d = 0; d < dims.nodes(); ++d) {
      if (s == d) continue;
      const auto path = noc::route_around_faults(dims, s, d, noc::TurnModel::XY, faults);
      if (side(s) == side(d)) {
        ASSERT_TRUE(path.has_value()) << s << "->" << d;
        EXPECT_TRUE(faults.path_alive(dims, *path));
      } else {
        EXPECT_FALSE(path.has_value()) << s << "->" << d << ": partitioned pair must report";
      }
    }
  }
}

// --- Session-level: mid-phase kill, end to end -------------------------------

TEST(FaultSession, MidPhaseKillOn8x8CompletesWithOnlineReroute) {
  NocConfig cfg = testing::test_config();
  cfg.width = 8;
  cfg.height = 8;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 8000;
  cfg.drain_timeout = 30'000;
  cfg.fit_derived();
  cfg.validate();
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "uniform", 0.05, cfg);
  // Three central row links die mid-measurement - no drain, no rebuild.
  spec.fault_events = noc::parse_fault_schedule_token("kill@2500:27:E+kill@2500:28:E+kill@2600:35:E");

  sim::Session session(std::move(spec));
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;

  noc::MeshNetwork* mesh = session.mesh_network();
  ASSERT_NE(mesh, nullptr);
  const noc::FaultCounters& fc = mesh->stats().faults();
  EXPECT_EQ(fc.link_kills, 3u);
  EXPECT_GT(fc.flows_rerouted, 0u) << "row traffic must reroute around the dead links";
  EXPECT_EQ(mesh->packet_pool().live(), 0u) << "every offered packet must be accounted";
  // Conservation modulo the warmup boundary: the stats reset at measure
  // start erases warmup offers, but their in-flight packets still deliver
  // into the window - so delivered + dropped can only exceed offered.
  EXPECT_GE(mesh->stats().total_packets() + fc.packets_dropped, fc.packets_offered);
}

TEST(FaultSession, WatchdogReportsStructuredStallInsteadOfHanging) {
  NocConfig cfg = testing::test_config();
  cfg.measure_cycles = 5000;
  cfg.drain_timeout = 500'000;  // far beyond the watchdog: it must fire first
  cfg.watchdog_window = 2000;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "uniform", 0.05, cfg);
  // A router frozen "forever": the drain phase can never finish.
  spec.fault_events = noc::parse_fault_schedule_token("stall@2500:5@100000000");

  sim::Session session(std::move(spec));
  const sim::SessionResult sr = session.run();
  EXPECT_FALSE(sr.ok);
  EXPECT_NE(sr.error.find("liveness watchdog"), std::string::npos) << sr.error;
  EXPECT_NE(sr.error.find("packets in flight"), std::string::npos)
      << sr.error << " (the StallReport summary must be embedded)";
  // Structured failure, not a timeout: the session stopped one watchdog
  // window into the stall, nowhere near the 500k drain bound.
  ASSERT_EQ(sr.phases.size(), 3u);
  EXPECT_EQ(sr.phases[2].cycles_run, 1870u);
  EXPECT_EQ(session.session_cycles(), 8870u);
}

TEST(FaultSession, WatchdogTripsInsideATrafficPhase) {
  const std::string workload = testing::one_flow_workload("test-watchdog-flow", 0, 15, 400.0);
  NocConfig cfg = testing::test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 20'000;
  cfg.watchdog_window = 1000;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Mesh, workload, 1.0, cfg);
  // Router 1 sits on the only flow's XY path: freezing it stops every flit
  // while the source keeps offering packets.
  spec.fault_events = noc::parse_fault_schedule_token("stall@3000:1@100000000");

  sim::Session session(std::move(spec));
  const sim::SessionResult sr = session.run();
  EXPECT_FALSE(sr.ok);
  ASSERT_EQ(sr.phases.size(), 2u) << "the session stops at the failed measure phase";
  EXPECT_TRUE(sr.phases[0].ok);
  EXPECT_FALSE(sr.phases[1].ok);
  EXPECT_NE(sr.phases[1].error.find("liveness watchdog"), std::string::npos)
      << sr.phases[1].error;
  EXPECT_NE(sr.phases[1].error.find("packets in flight"), std::string::npos)
      << sr.phases[1].error;
  EXPECT_EQ(sr.phases[1].cycles_run, 3701u);
  EXPECT_EQ(session.session_cycles(), 4201u);
}

}  // namespace
}  // namespace smartnoc
