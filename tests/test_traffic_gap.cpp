// Geometric skip-ahead traffic (TrafficEngine): determinism at equal
// seeds, O(packets) RNG consumption (vs the seed's draw-per-cycle loop's
// O(flows x cycles)), statistical agreement with that per-cycle process,
// kept below as an oracle, and bit-identical live-vs-replay runs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "helpers.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::noc {
namespace {

using smartnoc::testing::test_config;

NocConfig small_cfg() {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  return cfg;
}

/// Packet sink for driving an engine without a real fabric.
class SinkNet final : public Network {
 public:
  explicit SinkNet(const NocConfig& cfg) : cfg_(cfg) {}
  void tick() override { now_ += 1; }
  Cycle now() const override { return now_; }
  void offer_packet(FlowId flow, Cycle created) override {
    offered.push_back(TraceEntry{created, flow});
  }
  bool drained() const override { return true; }
  NetworkStats& stats() override { return stats_; }
  const NocConfig& config() const override { return cfg_; }
  const FlowSet& flows() const override { return flows_; }

  std::vector<TraceEntry> offered;

 private:
  NocConfig cfg_;
  NetworkStats stats_;
  FlowSet flows_;
  Cycle now_ = 0;
};

/// The seed's per-cycle Bernoulli process: each flow draws one uniform from
/// its own stream (make_stream(seed, flow id)) every cycle and offers a
/// packet when it lands under the flow's packets_per_cycle. Same cycles
/// and same order as record_bernoulli_trace.
std::vector<TraceEntry> per_cycle_trace(const NocConfig& cfg, const FlowSet& flows,
                                        std::uint64_t seed, Cycle cycles) {
  struct PerCycleFlow {
    FlowId id;
    double p;
    Xoshiro256 rng;
  };
  std::vector<PerCycleFlow> gens;
  for (const Flow& f : flows) {
    gens.push_back(
        {f.id, f.packets_per_cycle(cfg), make_stream(seed, static_cast<std::uint64_t>(f.id))});
  }
  std::vector<TraceEntry> trace;
  for (Cycle t = 1; t <= cycles; ++t) {
    for (PerCycleFlow& g : gens) {
      if (g.rng.bernoulli(g.p)) trace.push_back(TraceEntry{t, g.id});
    }
  }
  return trace;
}

TEST(GapSkip, DeterministicAtEqualSeeds) {
  const NocConfig cfg = small_cfg();
  const auto flows =
      make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.1, TurnModel::XY);
  const auto a = record_bernoulli_trace(cfg, flows, 9, 20'000);
  const auto b = record_bernoulli_trace(cfg, flows, 9, 20'000);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A different seed is a different realization.
  const auto c = record_bernoulli_trace(cfg, flows, 10, 20'000);
  EXPECT_NE(a, c);
}

TEST(GapSkip, AgreesWithPerCyclePathAtEqualSeeds) {
  const NocConfig cfg = small_cfg();
  const auto flows =
      make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.1, TurnModel::XY);
  const Cycle cycles = 50'000;
  const auto per_cycle = per_cycle_trace(cfg, flows, 9, cycles);
  const auto gap = record_bernoulli_trace(cfg, flows, 9, cycles);
  ASSERT_GT(per_cycle.size(), 5000u);
  // Same process parameters, so the same expected rate: the two paths'
  // totals differ only by sampling noise (they are different realizations
  // of the same geometric/Bernoulli process; the old path draws per cycle,
  // the new per packet). 5% is ~5 sigma at this volume.
  const double ratio = static_cast<double>(gap.size()) / static_cast<double>(per_cycle.size());
  EXPECT_NEAR(ratio, 1.0, 0.05) << "gap=" << gap.size() << " per-cycle=" << per_cycle.size();
}

TEST(GapSkip, RngWorkIsPerPacketNotPerCycle) {
  const NocConfig cfg = small_cfg();
  const auto flows =
      make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.02, TurnModel::XY);
  const Cycle cycles = 20'000;
  const auto n_flows = static_cast<std::uint64_t>(flows.size());

  SinkNet gap_net(cfg);
  TrafficEngine gap(cfg, flows, cfg.seed);
  for (Cycle t = 0; t < cycles; ++t) {
    gap_net.tick();
    gap.generate(gap_net);
  }
  // One draw per packet plus one per flow to seed the first gap.
  EXPECT_EQ(gap.rng_draws(), gap.generated() + n_flows);
  // The per-cycle process draws once per flow per cycle.
  EXPECT_LT(gap.rng_draws(), n_flows * cycles / 10);
  EXPECT_GT(gap.generated(), 0u);
}

TEST(GapSkip, PacketsArriveInCycleAndFlowOrder) {
  const NocConfig cfg = small_cfg();
  const auto flows = make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.3,
                                          TurnModel::XY);
  const auto trace = record_bernoulli_trace(cfg, flows, 3, 5'000);
  ASSERT_GT(trace.size(), 100u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_LE(trace[i - 1].cycle, trace[i].cycle);
    if (trace[i - 1].cycle == trace[i].cycle) {
      // Same-cycle packets pop in flow-registration order, like the
      // per-cycle loop emitted them.
      ASSERT_LT(trace[i - 1].flow, trace[i].flow);
    }
  }
}

// Session phases switch generation off (drain) and back on. Re-enabling
// re-draws the gap of every flow whose due cycle passed meanwhile, from the
// present, exactly once. This pins the exact (cycle, flow) trace of such a
// run, recorded from the binary-heap engine that preceded the calendar
// wheel: a 5000-cycle pause (longer than this run's 4096-cycle wheel span),
// a 20-cycle pause over a due packet, and a flow (rate 0.0002) whose gaps
// exceed the span.
TEST(GapSkip, ReenabledEngineRedrawsPassedSlots) {
  const NocConfig cfg = NocConfig::paper_4x4();
  const MeshDims dims = cfg.dims();
  FlowSet flows;
  const double rates[] = {0.004, 0.002, 0.0002, 0.0001, 0.003};
  const NodeId src[] = {0, 5, 10, 15, 3};
  const NodeId dst[] = {15, 6, 1, 0, 12};
  for (int i = 0; i < 5; ++i) {
    flows.add(src[i], dst[i], mbps_for_packets_per_cycle(cfg, rates[i]),
              xy_path(dims, src[i], dst[i]));
  }
  SinkNet net(cfg);
  TrafficEngine engine(cfg, flows, 77);
  const auto enabled = [](Cycle t) {
    return !((t > 3000 && t <= 8000) || (t > 11080 && t <= 11100));
  };
  for (Cycle t = 1; t <= 22'000; ++t) {
    net.tick();
    engine.set_enabled(enabled(t));
    engine.generate(net);
  }
  const std::vector<TraceEntry> expected = {
      {36, 0}, {133, 0}, {208, 0}, {259, 0}, {325, 4}, {363, 1}, {375, 2}, {418, 4}, {495, 0},
      {523, 1}, {540, 4}, {628, 4}, {795, 0}, {971, 0}, {1092, 0}, {1160, 0}, {1244, 4}, {1464, 0},
      {1485, 0}, {1675, 0}, {1733, 0}, {2178, 0}, {2196, 0}, {2198, 0}, {2224, 0}, {2369, 1},
      {2448, 4}, {2510, 4}, {2590, 0}, {2681, 4}, {2694, 3}, {2757, 1}, {2839, 4}, {2865, 0},
      {2880, 4}, {2931, 4}, {2976, 4}, {8226, 0}, {8332, 4}, {8377, 0}, {8413, 1}, {8499, 0},
      {8614, 4}, {8822, 0}, {9089, 1}, {9161, 1}, {9169, 4}, {9187, 0}, {9451, 4}, {9506, 4},
      {9656, 4}, {9710, 0}, {9777, 1}, {9855, 1}, {9868, 4}, {9889, 1}, {9985, 0}, {10101, 0},
      {10109, 4}, {10133, 0}, {10305, 4}, {10420, 0}, {10462, 4}, {10589, 0}, {10665, 0},
      {10721, 1}, {10880, 0}, {10884, 0}, {10935, 0}, {11175, 4}, {11382, 0}, {11478, 4},
      {11514, 0}, {11811, 4}, {11874, 0}, {12003, 1}, {12036, 1}, {12170, 1}, {12443, 4},
      {12517, 0}, {12549, 2}, {12578, 1}, {12800, 4}, {12853, 0}, {12928, 4}, {13053, 4},
      {13241, 4}, {13269, 0}, {13492, 0}, {13502, 4}, {13537, 4}, {13628, 4}, {13682, 4},
      {14029, 4}, {14086, 4}, {14123, 1}, {14145, 0}, {14280, 4}, {14316, 0}, {14508, 0},
      {14545, 1}, {14726, 1}, {14732, 4}, {15404, 4}, {15529, 1}, {15786, 1}, {15866, 4},
      {16110, 0}, {16111, 0}, {16200, 0}, {16285, 0}, {16439, 1}, {16461, 4}, {16667, 0},
      {16728, 4}, {16753, 4}, {16786, 4}, {16979, 1}, {17042, 0}, {17049, 0}, {17058, 4},
      {17134, 1}, {17262, 0}, {17676, 1}, {17780, 0}, {17837, 0}, {17961, 4}, {18302, 4},
      {18435, 4}, {18459, 0}, {18660, 4}, {18679, 0}, {18709, 4}, {18770, 0}, {18952, 0},
      {19005, 0}, {19463, 4}, {19867, 0}, {19894, 1}, {19961, 0}, {20106, 0}, {20166, 4},
      {20421, 4}, {20474, 0}, {20673, 4}, {20865, 1}, {21123, 0}, {21444, 0}, {21656, 0},
      {21791, 0}, {21819, 0}, {21822, 1}, {21898, 1}, {21900, 4}};
  EXPECT_EQ(net.offered, expected);
  EXPECT_EQ(engine.generated(), 154u);
  // One draw per packet, one per flow for the first gap and one per
  // passed slot re-drawn on re-enable (six here).
  EXPECT_EQ(engine.rng_draws(), 165u);
}

TEST(GapSkip, LiveRunMatchesReplayExactly) {
  const NocConfig cfg = small_cfg();
  auto mk = [&] {
    return make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.05, TurnModel::XY);
  };
  auto live = smart::make_smart_network(cfg, mk());
  sim::BernoulliWorkload engine(cfg, live.net->flows(), cfg.seed);
  const sim::RunResult live_run = sim::run_simulation(*live.net, engine, cfg);
  ASSERT_TRUE(live_run.ok) << live_run.error;

  auto replayed = smart::make_smart_network(cfg, mk());
  auto trace = record_bernoulli_trace(cfg, replayed.net->flows(), cfg.seed,
                                      cfg.warmup_cycles + cfg.measure_cycles);
  sim::ReplayWorkload replayer(std::move(trace));
  const sim::RunResult replay_run = sim::run_simulation(*replayed.net, replayer, cfg);

  EXPECT_EQ(engine.generated(), replayer.generated());
  EXPECT_EQ(live_run.packets_delivered, replay_run.packets_delivered);
  EXPECT_EQ(live_run.avg_network_latency, replay_run.avg_network_latency);
  EXPECT_EQ(live_run.drain_cycles, replay_run.drain_cycles);
  EXPECT_EQ(live_run.activity.buffer_writes, replay_run.activity.buffer_writes);
}

TEST(GapSkip, SessionScenarioRunsGapTraffic) {
  NocConfig cfg = small_cfg();
  const sim::ScenarioSpec spec =
      sim::ScenarioSpec::classic(Design::Smart, "transpose", 0.05, cfg);
  sim::Session a(spec);
  const sim::RunResult ra = sim::session_to_run_result(a.run());
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_GT(ra.packets_delivered, 0u);
  // Deterministic: a second session of the same spec is bit-identical.
  sim::Session b(spec);
  const sim::RunResult rb = sim::session_to_run_result(b.run());
  EXPECT_EQ(ra.packets_delivered, rb.packets_delivered);
  EXPECT_EQ(ra.avg_network_latency, rb.avg_network_latency);
  EXPECT_EQ(ra.packets_generated, rb.packets_generated);
}

}  // namespace
}  // namespace smartnoc::noc
