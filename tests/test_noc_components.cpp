// Component-level behaviour: VC buffers, round-robin fairness, traffic
// engine rates, flow construction.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>

#include "helpers.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/flow.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"

namespace smartnoc::noc {
namespace {

/// An arbiter request set with bits `on` set.
ArbMask mask_of(std::initializer_list<int> on) {
  ArbMask m;
  for (int i : on) m.set(i);
  return m;
}

TEST(VcBufferTest, FifoOrder) {
  std::array<FlitRef, 4> slots{};
  VcBuffer b(slots.data(), 4);
  for (int i = 0; i < 4; ++i) {
    FlitRef f;
    f.seq = static_cast<std::uint8_t>(i);
    b.push(f);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.pop().seq, i);
  }
  EXPECT_TRUE(b.empty());
}

TEST(VcBufferTest, RingWrapsOverCallerStorage) {
  std::array<FlitRef, 3> slots{};
  VcBuffer b(slots.data(), 3);
  for (int i = 0; i < 10; ++i) {
    FlitRef f;
    f.seq = static_cast<std::uint8_t>(i);
    b.push(f);
    EXPECT_EQ(slots[static_cast<std::size_t>(i % 3)].seq, i);  // written in place
    EXPECT_EQ(b.pop().seq, i);
  }
  EXPECT_TRUE(b.empty());
}

TEST(VcBufferTest, RequestLifecycle) {
  std::array<FlitRef, 4> slots{};
  VcBuffer b(slots.data(), 4);
  EXPECT_FALSE(b.has_request());
  b.set_request(Dir::East);
  EXPECT_TRUE(b.has_request());
  EXPECT_EQ(b.requested_out(), Dir::East);
  b.clear_request();
  EXPECT_FALSE(b.has_request());
}

TEST(VcBufferTest, BlockKeepsVcsApartAndSurvivesMoves) {
  VcBlock block(3, 2);
  ASSERT_EQ(block.size(), 3);
  for (int v = 0; v < 3; ++v) {
    FlitRef f;
    f.seq = static_cast<std::uint8_t>(10 + v);
    block[v].push(f);
    block[v].push(f);
  }
  VcBlock moved = std::move(block);
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(moved[v].occupancy(), 2);
    EXPECT_EQ(moved[v].pop().seq, 10 + v);
  }
}

// Router::accept_flit prefetches head_push_target for a head flit's VC a
// cycle before Buffer Write pushes it. A wrong target costs only speed, so
// no golden test would notice: pin it here for every (input, VC) of a
// Table II router block (5 ports x 2 VCs x 10 flits), across packets whose
// lengths leave the ring at different positions.
TEST(VcBufferTest, HeadPushTargetIsWhereTheNextHeadLands) {
  constexpr int kPorts = 5, kVcs = 2, kDepth = 10;
  VcBlock block(kPorts * kVcs, kDepth);
  for (int in = 0; in < kPorts; ++in) {
    for (int v = 0; v < kVcs; ++v) {
      const int b = in * kVcs + v;  // Router::vc_index(in, v)
      VcBuffer& vc = block[b];
      for (int pkt = 0; pkt < 4; ++pkt) {
        const VcBlock::PushTarget t = block.head_push_target(b);
        EXPECT_EQ(t.header, &vc) << "vc " << b;
        ASSERT_TRUE(vc.empty());
        FlitRef head;
        head.seq = static_cast<std::uint8_t>(b);
        vc.set_request(Dir::East, static_cast<PacketSlot>(pkt));
        vc.push(head);
        EXPECT_EQ(&vc.front(), t.slot) << "vc " << b << " packet " << pkt;
        // Stream a body of 2..8 flits, popping as it goes (cut-through),
        // then free the VC as the tail's Switch Traversal does.
        const int len = 3 + (b + 3 * pkt) % 7;
        for (int k = 1; k < len; ++k) {
          vc.push(FlitRef{});
          if (k % 2 == 0) vc.pop();
        }
        while (!vc.empty()) vc.pop();
        vc.clear_request();
      }
    }
  }
  // Each VC's ring follows its header and ends before the next VC's.
  for (int b = 0; b + 1 < block.size(); ++b) {
    const VcBlock::PushTarget t = block.head_push_target(b);
    EXPECT_EQ(static_cast<const void*>(t.slot), static_cast<const void*>(t.header + 1));
    EXPECT_LE(static_cast<const void*>(t.slot + kDepth),
              static_cast<const void*>(block.head_push_target(b + 1).header));
  }
}

TEST(ArbiterTest, GrantsOnlyRequesters) {
  RoundRobinArbiter arb(4);
  const ArbMask req = mask_of({1, 3});
  for (int i = 0; i < 8; ++i) {
    const auto g = arb.arbitrate(req);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(req.test(*g));
  }
}

TEST(ArbiterTest, NoRequestsNoGrant) {
  RoundRobinArbiter arb(3);
  EXPECT_FALSE(arb.arbitrate(ArbMask{}).has_value());
}

TEST(ArbiterTest, RoundRobinIsFairUnderSaturation) {
  RoundRobinArbiter arb(5);
  const ArbMask req = mask_of({0, 1, 2, 3, 4});
  std::vector<int> grants(5, 0);
  for (int i = 0; i < 1000; ++i) {
    grants[static_cast<std::size_t>(*arb.arbitrate(req))] += 1;
  }
  for (int g : grants) EXPECT_EQ(g, 200);
}

TEST(ArbiterTest, NoStarvationWithAsymmetricLoad) {
  // Requester 0 always requests; requester 3 requests every cycle too;
  // the pointer guarantees alternation.
  RoundRobinArbiter arb(4);
  const ArbMask req = mask_of({0, 3});
  int zero = 0, three = 0;
  for (int i = 0; i < 100; ++i) {
    const int g = *arb.arbitrate(req);
    (g == 0 ? zero : three) += 1;
  }
  EXPECT_EQ(zero, 50);
  EXPECT_EQ(three, 50);
}

TEST(ArbiterTest, BitScanMatchesLinearProbe) {
  // The pick is the first request at or after the pointer, wrapping once:
  // cross-check against a one-bit-at-a-time probe, across the word
  // boundary of the two-word mask.
  const int n = kMaxArbInputs;
  RoundRobinArbiter arb(n);
  int ptr = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 2000; ++round) {
    ArbMask req;
    for (int i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if (x % 11 == 0) req.set(i);
    }
    int expect = -1;
    for (int k = 0; k < n; ++k) {
      if (req.test((ptr + k) % n)) {
        expect = (ptr + k) % n;
        break;
      }
    }
    const auto g = arb.arbitrate(req);
    if (expect < 0) {
      EXPECT_FALSE(g.has_value());
      continue;
    }
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(*g, expect);
    ptr = (expect + 1) % n;
  }
}

TEST(FlowTest, PacketsPerCycleConversion) {
  NocConfig cfg;  // 2 GHz, 256-bit packets = 32 B
  FlowSet fs;
  fs.add(0, 1, 640.0, xy_path(cfg.dims(), 0, 1));  // 640 MB/s
  // 640e6 B/s / 32 B = 2e7 pkt/s; / 2e9 cycles/s = 0.01 pkt/cycle.
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.01, 1e-12);
}

TEST(FlowTest, BandwidthScaleMultiplies) {
  NocConfig cfg;
  cfg.bandwidth_scale = 100.0;  // the paper's MMS x100 scaling
  FlowSet fs;
  fs.add(0, 1, 6.4, xy_path(cfg.dims(), 0, 1));
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.01, 1e-12);
}

TEST(FlowTest, RejectsSelfFlow) {
  FlowSet fs;
  RoutePath p;
  p.src = 3;
  p.dst = 3;
  EXPECT_THROW(fs.add(3, 3, 10.0, p), ConfigError);
}

TEST(FlowTest, MbpsInversion) {
  NocConfig cfg;
  const double mbps = mbps_for_packets_per_cycle(cfg, 0.02);
  FlowSet fs;
  fs.add(0, 1, mbps, xy_path(cfg.dims(), 0, 1));
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.02, 1e-12);
}

TEST(SyntheticTest, UniformRandomIsAllPairs) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.1,
                                       TurnModel::XY);
  EXPECT_EQ(fs.size(), 16 * 15);
}

TEST(SyntheticTest, TransposeExcludesDiagonal) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.1, TurnModel::XY);
  EXPECT_EQ(fs.size(), 12);  // 16 nodes minus 4 on the diagonal
  for (const auto& f : fs) {
    const Coord c = cfg.dims().coord(f.src);
    EXPECT_EQ(f.dst, cfg.dims().id({c.y, c.x}));
  }
}

TEST(SyntheticTest, PerSourceRateSplitsAcrossFlows) {
  NocConfig cfg;
  const double rate = 0.08;  // flits/node/cycle -> 0.01 pkt/node/cycle
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, rate,
                                       TurnModel::XY);
  double per_src0 = 0.0;
  for (const auto& f : fs) {
    if (f.src == 0) per_src0 += f.packets_per_cycle(cfg);
  }
  EXPECT_NEAR(per_src0, rate / cfg.flits_per_packet(), 1e-9);
}

TEST(SyntheticTest, HotspotTargetsCenter) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::Hotspot, 0.1, TurnModel::XY);
  const NodeId hot = cfg.dims().id({2, 2});
  EXPECT_EQ(fs.size(), 15);
  for (const auto& f : fs) EXPECT_EQ(f.dst, hot);
}

TEST(SyntheticTest, RatesAboveOnePacketPerCycleRejected) {
  NocConfig cfg;
  FlowSet fs;
  fs.add(0, 1, mbps_for_packets_per_cycle(cfg, 1.5), xy_path(cfg.dims(), 0, 1));
  EXPECT_THROW(noc::TrafficEngine(cfg, fs, 1), ConfigError);
}

}  // namespace
}  // namespace smartnoc::noc
