// PacketPool contract: slot recycling under churn (steady-state simulation
// must not grow the pool), refcount exhaustion trips the invariant check,
// and on a real network the pool's live count tracks the in-flight packet
// accounting exactly - zero at drain, offered-minus-delivered in between.
#include <gtest/gtest.h>

#include <algorithm>

#include "dedicated/dedicated_network.hpp"
#include "helpers.hpp"
#include "noc/network.hpp"
#include "noc/packet_pool.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using noc::PacketPool;
using noc::PacketSlot;
using smartnoc::testing::test_config;

TEST(PacketPool, RecyclesSlotsUnderChurn) {
  PacketPool pool;
  // Worst case of a steady stream: up to 4 packets live at once, thousands
  // allocated over time. The free list must cap the pool at the peak.
  std::vector<PacketSlot> live;
  for (int round = 0; round < 10'000; ++round) {
    live.push_back(pool.alloc());
    if (live.size() == 4) {
      for (PacketSlot s : live) pool.release(s);
      live.clear();
    }
  }
  for (PacketSlot s : live) pool.release(s);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_LE(pool.capacity(), 4u) << "churn must recycle, not grow";
}

TEST(PacketPool, ReusedSlotStartsFresh) {
  PacketPool pool;
  const PacketSlot a = pool.alloc();
  pool.at(a).id = 42;
  pool.add_ref(a);
  EXPECT_EQ(pool.refs(a), 2u);
  pool.release(a);
  pool.release(a);
  EXPECT_EQ(pool.live(), 0u);
  const PacketSlot b = pool.alloc();
  EXPECT_EQ(b, a) << "freed slot must be recycled";
  EXPECT_EQ(pool.refs(b), 1u) << "recycled slot starts with the transmit reference";
}

TEST(PacketPoolDeathTest, RefcountExhaustionTripsTheInvariant) {
  PacketPool pool;
  const PacketSlot s = pool.alloc();
  for (std::uint32_t i = 1; i < PacketPool::kMaxRefs; ++i) pool.add_ref(s);
  EXPECT_EQ(pool.refs(s), PacketPool::kMaxRefs);
  EXPECT_DEATH(pool.add_ref(s), "refcount exhausted");
}

TEST(PacketPoolDeathTest, DanglingSlotAccessTripsTheInvariant) {
  PacketPool pool;
  const PacketSlot s = pool.alloc();
  pool.release(s);
  EXPECT_DEATH(pool.at(s), "dangling packet slot");
  EXPECT_DEATH(pool.release(s), "release on a dead slot");
}

// --- Pool accounting against a live network ----------------------------------

TEST(PacketPoolInvariant, LiveCountTracksInFlightPacketsCycleByCycle) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 0;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.05,
                                         noc::TurnModel::XY);
  auto net = noc::make_baseline_mesh(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);

  // No stats reset in this loop: total_packets() counts every delivery, so
  // live() must equal offered - delivered at every cycle boundary (a packet
  // is live from offer_packet until its tail is consumed at the sink).
  std::uint64_t peak_live = 0;
  for (Cycle t = 0; t < 3000; ++t) {
    net->tick();
    traffic.generate(*net);
    const std::uint64_t offered = traffic.generated();
    const std::uint64_t delivered = net->stats().total_packets();
    ASSERT_EQ(net->packet_pool().live(), offered - delivered) << "cycle " << t;
    peak_live = std::max<std::uint64_t>(peak_live, net->packet_pool().live());
  }
  ASSERT_GT(peak_live, 0u) << "test carried no traffic";

  traffic.set_enabled(false);
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*net, cfg.drain_timeout));
  EXPECT_EQ(net->packet_pool().live(), 0u) << "drained network must hold no live packets";
  EXPECT_EQ(net->stats().total_packets(), traffic.generated());
  // Recycling bounded the pool by the peak, not the packet total.
  EXPECT_LE(net->packet_pool().capacity(), static_cast<std::size_t>(peak_live) + 1);
  EXPECT_LT(net->packet_pool().capacity(), traffic.generated());
}

TEST(PacketPoolInvariant, SmartAndDedicatedDrainToZero) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  {
    auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                           noc::TurnModel::XY);
    auto smart = smart::make_smart_network(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, smart.net->flows(), cfg.seed);
    ASSERT_TRUE(sim::run_simulation(*smart.net, traffic, cfg).drained);
    EXPECT_EQ(smart.net->packet_pool().live(), 0u);
  }
  {
    auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Hotspot, 0.02,
                                           noc::TurnModel::XY);
    dedicated::DedicatedNetwork ded(cfg, std::move(flows));
    sim::BernoulliWorkload traffic(cfg, ded.flows(), cfg.seed);
    ASSERT_TRUE(sim::run_simulation(ded, traffic, cfg).drained);
    EXPECT_EQ(ded.packet_pool().live(), 0u);
  }
}

}  // namespace
}  // namespace smartnoc
