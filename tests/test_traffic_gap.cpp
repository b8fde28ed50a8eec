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
