// Trace record/replay: the recorded Bernoulli trace replays bit-identically
// to the live engine and drives all designs with literally the same packets
// (the Fig. 10 methodology).
#include <gtest/gtest.h>

#include "dedicated/dedicated_network.hpp"
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

TEST(TraceReplay, MatchesLiveEngineExactly) {
  const NocConfig cfg = small_cfg();
  auto mk = [&] {
    return make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.05, TurnModel::XY);
  };
  // Live run.
  auto live = noc::make_baseline_mesh(cfg, mk());
  sim::BernoulliWorkload engine(cfg, live->flows(), cfg.seed);
  sim::run_simulation(*live, engine, cfg);
  // Replayed run from a pre-recorded trace covering warmup+measure.
  auto replayed = noc::make_baseline_mesh(cfg, mk());
  auto trace = record_bernoulli_trace(cfg, replayed->flows(), cfg.seed,
                                      cfg.warmup_cycles + cfg.measure_cycles);
  sim::ReplayWorkload replayer(std::move(trace));
  sim::run_simulation(*replayed, replayer, cfg);

  EXPECT_EQ(replayer.generated(), engine.generated());
  EXPECT_EQ(replayed->stats().total_packets(), live->stats().total_packets());
  EXPECT_DOUBLE_EQ(replayed->stats().avg_network_latency(),
                   live->stats().avg_network_latency());
  EXPECT_EQ(replayed->stats().activity().buffer_writes,
            live->stats().activity().buffer_writes);
}

TEST(TraceReplay, RejectsUnsortedTrace) {
  EXPECT_THROW(TraceReplayer({{10, 0}, {5, 0}}), ConfigError);
}

TEST(TraceReplay, SameTraceAcrossDesignsIsSameTraffic) {
  // The identical trace drives SMART and Dedicated: both must consume all
  // of it and deliver the same number of packets. Zero warmup so the stats
  // window covers every packet (a warmup reset would clip designs at
  // different in-flight boundaries).
  NocConfig cfg = small_cfg();
  cfg.warmup_cycles = 0;
  auto mk = [&] {
    return make_synthetic_flows(cfg, SyntheticPattern::Hotspot, 0.02, TurnModel::XY);
  };
  const auto trace = record_bernoulli_trace(cfg, mk(), cfg.seed,
                                            cfg.warmup_cycles + cfg.measure_cycles);
  std::uint64_t smart_pkts, ded_pkts;
  {
    auto smart = smart::make_smart_network(cfg, mk());
    sim::ReplayWorkload r(trace);
    const auto res = sim::run_simulation(*smart.net, r, cfg);
    ASSERT_TRUE(res.drained);
    EXPECT_TRUE(r.exhausted());
    smart_pkts = smart.net->stats().total_packets();
  }
  {
    dedicated::DedicatedNetwork ded(cfg, mk());
    sim::ReplayWorkload r(trace);
    const auto res = sim::run_simulation(ded, r, cfg);
    ASSERT_TRUE(res.drained);
    ded_pkts = ded.stats().total_packets();
  }
  EXPECT_EQ(smart_pkts, ded_pkts);
  EXPECT_EQ(smart_pkts, trace.size());
}

TEST(Percentiles, MatchHandComputedDistribution) {
  NetworkStats stats;
  // Ten packets: latencies 1..10 (inject at 1, head arrives at k).
  for (int k = 1; k <= 10; ++k) {
    stats.record_packet(0, 1, 0, 1, static_cast<Cycle>(k), static_cast<Cycle>(k));
  }
  EXPECT_EQ(stats.latency_percentile(50), 5u);
  EXPECT_EQ(stats.latency_percentile(90), 9u);
  EXPECT_EQ(stats.latency_percentile(100), 10u);
}

TEST(Percentiles, TailAboveAverageUnderContention) {
  const NocConfig cfg = small_cfg();
  auto flows = make_synthetic_flows(cfg, SyntheticPattern::Hotspot, 0.05, TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  sim::BernoulliWorkload t(cfg, smart.net->flows(), cfg.seed);
  sim::run_simulation(*smart.net, t, cfg);
  const auto& s = smart.net->stats();
  EXPECT_GE(static_cast<double>(s.latency_percentile(99)), s.avg_network_latency());
  EXPECT_LE(s.latency_percentile(50), s.latency_percentile(99));
}

}  // namespace
}  // namespace smartnoc::noc
