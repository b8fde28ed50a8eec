// Router and NIC unit tests on the flits and credits the components return:
// pipeline stage-by-stage behaviour, per-packet switch holds, input
// locking, arbitration fairness under sustained two-way contention, credit
// discipline, and the NIC's flow picker against a linear-scan model -
// without a whole network around them. Under the structure-of-arrays flit split the tests own the
// PacketPool a network would normally own: payloads are allocated up front
// and flits travel as FlitRefs.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/nic.hpp"
#include "noc/packet_pool.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"

namespace smartnoc::noc {
namespace {

/// Collects what routers and NICs return, in the order they return it: the
/// flits they put on the wire and the credits of the VCs they freed.
struct Emissions {
  struct Sent {
    NodeId router;
    Dir out;
    FlitRef flit;
    Cycle cycle;
  };
  struct CreditEvt {
    NodeId router;
    Dir in;
    VcId vc;
    Cycle cycle;
  };
  std::vector<Sent> sent;
  std::vector<CreditEvt> credits;

  /// Switch Traversal on every held output, in port order (as the network).
  void traverse(Router& r, Cycle now, ActivityCounters& act) {
    for (unsigned held = r.holds(); held != 0; held &= held - 1) {
      const Dir o = dir_from_index(std::countr_zero(held));
      const auto d = r.switch_traversal(o, now, act);
      if (!d) continue;
      sent.push_back({r.id(), o, d->flit, now});
      if (is_tail(d->flit.type)) credits.push_back({r.id(), d->in, d->in_vc, now});
    }
  }
  void inject(Nic& nic, Cycle now) {
    if (const auto f = nic.inject(now)) sent.push_back({nic.node(), Dir::Core, *f, now});
  }
  void accept(Nic& nic, const FlitRef& f, Cycle now) {
    if (const auto vc = nic.accept_flit(f, now)) {
      credits.push_back({nic.node(), Dir::Core, *vc, now});
    }
  }
};

NocConfig cfg4() { return NocConfig::paper_4x4(); }

/// Allocates a packet payload in `pool` and returns a head flit of it.
/// The slot keeps its transmit reference for the test's lifetime, so the
/// router's route decode always resolves.
FlitRef make_head(PacketPool& pool, FlowId flow, VcId vc, const RoutePath& path,
                  std::uint8_t hop_index, FlitType type = FlitType::HeadTail) {
  const PacketSlot slot = pool.alloc();
  PacketPayload& pkt = pool.at(slot);
  pkt.flow = flow;
  pkt.id = static_cast<std::uint32_t>(100 + flow);
  pkt.src = path.src;
  pkt.dst = path.dst;
  pkt.route = SourceRoute::encode(path);
  FlitRef f;
  f.slot = slot;
  f.type = type;
  f.vc = vc;
  f.hop_index = hop_index;
  return f;
}

/// Runs the router's three phases for one cycle in network order.
void cycle(Router& r, Cycle now, ActivityCounters& act, Emissions& em) {
  r.buffer_write(now, act);
  em.traverse(r, now, act);
  r.switch_allocation(now, act);
}

TEST(RouterUnit, SingleFlitTakesExactlyThreeStages) {
  const NocConfig cfg = cfg4();
  Emissions em;
  PacketPool pool;
  Router r(5, cfg, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;

  // Head-tail flit arrives (latched end of cycle 10) at input West,
  // heading straight East (hop 1 of path 4 -> 5 -> 6).
  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  r.accept_flit(Dir::West, make_head(pool, 0, 0, path, 1), 10);

  cycle(r, 11, act, em);  // BW
  EXPECT_TRUE(em.sent.empty());
  cycle(r, 12, act, em);  // SA
  EXPECT_TRUE(em.sent.empty());
  cycle(r, 13, act, em);  // ST
  ASSERT_EQ(em.sent.size(), 1u);
  EXPECT_EQ(em.sent[0].cycle, 13u);
  EXPECT_EQ(em.sent[0].out, Dir::East);
  // The freed VC's credit went back toward the feeder the same cycle.
  ASSERT_EQ(em.credits.size(), 1u);
  EXPECT_EQ(em.credits[0].in, Dir::West);
  EXPECT_EQ(em.credits[0].vc, 0);
}

TEST(RouterUnit, PacketHoldsSwitchUntilTail) {
  const NocConfig cfg = cfg4();
  Emissions em;
  PacketPool pool;
  Router r(5, cfg, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  // 3-flit packet arriving back to back on VC 0.
  FlitRef head = make_head(pool, 0, 0, path, 1, FlitType::Head);
  FlitRef body = head;
  body.type = FlitType::Body;
  body.seq = 1;
  FlitRef tail = head;
  tail.type = FlitType::Tail;
  tail.seq = 2;
  // One flit per cycle on the physical link, interleaved with the
  // router's cycles; the rival single-flit packet on the other VC of the
  // same input follows the tail and must wait out the input lock.
  FlitRef rival = make_head(pool, 1, 1, path, 1);
  pool.at(rival.slot).id = 555;
  r.accept_flit(Dir::West, head, 10);
  cycle(r, 11, act, em);
  r.accept_flit(Dir::West, body, 11);
  cycle(r, 12, act, em);
  r.accept_flit(Dir::West, tail, 12);
  cycle(r, 13, act, em);
  r.accept_flit(Dir::West, rival, 13);
  for (Cycle t = 14; t <= 18; ++t) cycle(r, t, act, em);

  ASSERT_EQ(em.sent.size(), 4u);
  // Flits of packet 100 leave in order at 13,14,15; the tail's ST releases
  // the lock before SA runs that same cycle, so the rival wins SA at 15
  // and traverses at 16.
  EXPECT_EQ(pool.at(em.sent[0].flit.slot).id, 100u);
  EXPECT_EQ(em.sent[1].flit.seq, 1);
  EXPECT_EQ(em.sent[2].flit.seq, 2);
  EXPECT_EQ(em.sent[2].cycle, 15u);
  EXPECT_EQ(pool.at(em.sent[3].flit.slot).id, 555u);
  EXPECT_EQ(em.sent[3].cycle, 16u);
  // Credits: one per packet, carrying the right VC ids.
  ASSERT_EQ(em.credits.size(), 2u);
  EXPECT_EQ(em.credits[0].vc, 0);
  EXPECT_EQ(em.credits[1].vc, 1);
}

TEST(RouterUnit, OutputBlocksWhenNoDownstreamVc) {
  const NocConfig cfg = cfg4();
  Emissions em;
  PacketPool pool;
  Router r(5, cfg, &pool);
  r.enable_output(Dir::East, 1);  // a single downstream VC
  ActivityCounters act;
  const RoutePath path = xy_path(cfg.dims(), 4, 6);

  r.accept_flit(Dir::West, make_head(pool, 0, 0, path, 1), 10);
  for (Cycle t = 11; t <= 13; ++t) cycle(r, t, act, em);
  ASSERT_EQ(em.sent.size(), 1u);  // first packet went out, consumed the VC

  r.accept_flit(Dir::West, make_head(pool, 1, 0, path, 1), 14);
  for (Cycle t = 15; t <= 19; ++t) cycle(r, t, act, em);
  EXPECT_EQ(em.sent.size(), 1u) << "no credit returned: the packet must stall";

  // Credit comes back: the stalled packet proceeds (SA next cycle, ST the
  // one after).
  r.credit_arrived(Dir::East, 0);
  cycle(r, 20, act, em);  // SA grants
  cycle(r, 21, act, em);  // ST fires
  EXPECT_EQ(em.sent.size(), 2u);
}

TEST(RouterUnit, TwoInputsShareOutputFairly) {
  const NocConfig cfg = cfg4();
  Emissions em;
  PacketPool pool;
  Router r(5, cfg, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;
  const RoutePath from_w = xy_path(cfg.dims(), 4, 6);   // W -> E straight
  RoutePath from_n;                                     // enters via N, turns E
  from_n.src = 9;
  from_n.dst = 6;
  from_n.links = {Dir::South, Dir::East};

  // One reusable payload per feeder; the router only decodes the route and
  // identifies flows through the payload, so reusing slots is fine here.
  const FlitRef proto_w = make_head(pool, 0, 0, from_w, 1);
  const FlitRef proto_n = make_head(pool, 1, 0, from_n, 1);

  // Keep both inputs saturated while honouring flow control: each upstream
  // holds this router's input VCs as credits and sends a new single-flit
  // packet only when it owns a free VC.
  std::map<Dir, int> sent_per_input;
  std::map<int, std::deque<VcId>> upstream_credits;  // dir_index -> free VCs
  for (VcId v = 0; v < cfg.vcs_per_port; ++v) {
    upstream_credits[dir_index(Dir::West)].push_back(v);
    upstream_credits[dir_index(Dir::North)].push_back(v);
  }
  for (Cycle t = 10; t < 210; ++t) {
    for (Dir in : {Dir::West, Dir::North}) {
      auto& avail = upstream_credits[dir_index(in)];
      if (avail.empty()) continue;
      FlitRef f = in == Dir::West ? proto_w : proto_n;
      f.vc = avail.front();
      avail.pop_front();
      r.accept_flit(in, f, t);
    }
    cycle(r, t + 1, act, em);
    // Downstream returns output credits instantly; upstream pools refill
    // from the router's freed-VC notifications.
    for (const auto& c : em.credits) upstream_credits[dir_index(c.in)].push_back(c.vc);
    em.credits.clear();
    while (r.free_vcs(Dir::East) < cfg.vcs_per_port) r.credit_arrived(Dir::East, 0);
    for (const auto& s : em.sent) {
      sent_per_input[pool.at(s.flit.slot).flow == 0 ? Dir::West : Dir::North]++;
    }
    em.sent.clear();
  }
  const int w = sent_per_input[Dir::West], n = sent_per_input[Dir::North];
  EXPECT_GT(w, 0);
  EXPECT_GT(n, 0);
  EXPECT_NEAR(static_cast<double>(w) / (w + n), 0.5, 0.1)
      << "round-robin must split a contended output evenly";
}

/// Allocates a slot whose payload mirrors what MeshNetwork::offer_packet
/// would install for this NIC-side test.
PacketSlot offer(PacketPool& pool, std::uint32_t id, FlowId flow, const RoutePath& path,
                 int flits, Cycle created) {
  const PacketSlot slot = pool.alloc();
  PacketPayload& pkt = pool.at(slot);
  pkt.id = id;
  pkt.flow = flow;
  pkt.src = path.src;
  pkt.dst = path.dst;
  pkt.flits = flits;
  pkt.route = SourceRoute::encode(path);
  pkt.created = created;
  return slot;
}

TEST(NicUnit, StreamsWholePacketOneFlitPerCycle) {
  const NocConfig cfg = cfg4();
  Emissions em;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(4, cfg, &stats, &pool);
  FlowSet fs;
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  nic.register_flow(fs.at(0));
  nic.init_source_credits(cfg.vcs_per_port);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  const PacketSlot slot = offer(pool, 9, 0, path, cfg.flits_per_packet(), 5);
  nic.offer_packet(slot, 0);

  for (Cycle t = 6; t < 6 + 8; ++t) em.inject(nic, t);
  ASSERT_EQ(em.sent.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(em.sent[i].flit.seq, static_cast<int>(i));
    EXPECT_EQ(em.sent[i].cycle, 6 + i);
    EXPECT_EQ(em.sent[i].flit.slot, slot);
  }
  EXPECT_EQ(pool.at(slot).injected, 6u);  // stamped when the head left
  EXPECT_TRUE(is_head(em.sent.front().flit.type));
  EXPECT_TRUE(is_tail(em.sent.back().flit.type));
  EXPECT_EQ(nic.source_free_vcs(), cfg.vcs_per_port - 1);
  // Transmit reference dropped at the tail; the 8 in-flight flit
  // references (held by the returned flits) keep the slot live.
  EXPECT_EQ(pool.refs(slot), 8u);
}

TEST(NicUnit, BlocksWithoutCredits) {
  const NocConfig cfg = cfg4();
  Emissions em;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(4, cfg, &stats, &pool);
  FlowSet fs;
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  nic.register_flow(fs.at(0));
  nic.init_source_credits(1);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  for (int p = 0; p < 2; ++p) {
    nic.offer_packet(offer(pool, static_cast<std::uint32_t>(p), 0, path, 1, 1), 0);
  }
  em.inject(nic, 2);
  em.inject(nic, 3);
  EXPECT_EQ(em.sent.size(), 1u) << "second packet must wait for the credit";
  nic.credit_arrived(0);
  em.inject(nic, 4);
  EXPECT_EQ(em.sent.size(), 2u);
}

TEST(NicUnit, ReceiveAssemblesAndCredits) {
  const NocConfig cfg = cfg4();
  Emissions em;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(6, cfg, &stats, &pool);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  const PacketSlot slot = offer(pool, 77, 0, path, 4, 1);
  pool.at(slot).injected = 2;
  const SourceRoute route = SourceRoute::encode(path);
  for (int s = 0; s < 4; ++s) {
    FlitRef f;
    f.slot = slot;
    f.type = s == 0 ? FlitType::Head : s == 3 ? FlitType::Tail : FlitType::Body;
    f.seq = static_cast<std::uint8_t>(s);
    f.vc = 1;
    f.hop_index = static_cast<std::uint8_t>(route.entries());
    pool.add_ref(slot);  // the in-flight flit's reference
    em.accept(nic, f, 10 + static_cast<Cycle>(s));
  }
  EXPECT_EQ(stats.total_packets(), 1u);
  const auto& fsx = stats.per_flow().at(0);
  EXPECT_EQ(fsx.flits, 4u);
  // head at 10, injected 2 -> network latency 9.
  EXPECT_DOUBLE_EQ(fsx.avg_network_latency(), 9.0);
  ASSERT_EQ(em.credits.size(), 1u);
  EXPECT_EQ(em.credits[0].vc, 1);
  EXPECT_EQ(em.credits[0].cycle, 13u);
  // All four flit references consumed; only the test's own remains.
  EXPECT_EQ(pool.refs(slot), 1u);
  EXPECT_EQ(pool.live(), 1u);
}

// A 4-flit packet end to end between two NICs, as under full bypass: inject
// returns each flit in order, only the tail's accept returns its receive
// VC, and the pool is back to its prior census once the flits are consumed
// (the transmit reference leaves with the tail, each flit's own with its
// consumption).
TEST(NicUnit, InjectReturnsEachFlitAndOnlyTheTailFreesItsVc) {
  const NocConfig cfg = cfg4();
  NetworkStats stats;
  PacketPool pool;
  Nic src(4, cfg, &stats, &pool);
  Nic dst(6, cfg, &stats, &pool);
  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  FlowSet fs;
  fs.add(4, 6, 100.0, path);
  src.register_flow(fs.at(0));
  src.init_source_credits(cfg.vcs_per_port);
  const PacketSlot bystander = offer(pool, 1, 0, path, 1, 0);  // live, untouched
  const std::size_t live_before = pool.live();

  const PacketSlot slot = offer(pool, 9, 0, path, 4, 5);
  src.offer_packet(slot, 0);
  std::vector<FlitRef> wire;
  for (Cycle t = 6; t < 10; ++t) {
    const auto f = src.inject(t);
    ASSERT_TRUE(f.has_value()) << "cycle " << t;
    wire.push_back(*f);
  }
  EXPECT_FALSE(src.inject(10).has_value());
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(wire[0].type, FlitType::Head);
  EXPECT_EQ(wire[1].type, FlitType::Body);
  EXPECT_EQ(wire[2].type, FlitType::Body);
  EXPECT_EQ(wire[3].type, FlitType::Tail);
  EXPECT_TRUE(src.idle());
  // The tail already dropped the transmit reference: the four returned
  // flits hold the slot.
  EXPECT_EQ(pool.refs(slot), 4u);

  const auto entries = static_cast<std::uint8_t>(pool.at(slot).route.entries());
  for (std::size_t k = 0; k < wire.size(); ++k) {
    FlitRef f = wire[k];
    f.hop_index = entries;  // the network advances it along the segments
    const auto freed = dst.accept_flit(f, 20 + static_cast<Cycle>(k));
    if (k + 1 < wire.size()) {
      EXPECT_FALSE(freed.has_value()) << "flit " << k;
    } else {
      ASSERT_TRUE(freed.has_value());
      EXPECT_EQ(*freed, wire[k].vc);
    }
  }
  EXPECT_TRUE(dst.idle());
  EXPECT_EQ(stats.total_packets(), 1u);
  EXPECT_EQ(pool.live(), live_before);
  EXPECT_EQ(pool.refs(bystander), 1u);
}

/// A flow sourced at `src` with an explicit (possibly sparse) FlowId, as a
/// network's flow table would hand it to the NIC.
Flow sparse_flow(const NocConfig& cfg, FlowId id, NodeId src, NodeId dst) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.path = xy_path(cfg.dims(), src, dst);
  f.route = SourceRoute::encode(f.path);
  return f;
}

/// NIC 4 sources FlowIds 0, 7 and 1000 (local indices 0, 1, 2), registered
/// interleaved with FlowId 3 at NIC 5. Packets are single-flit.
struct SparseNic {
  NocConfig cfg = cfg4();
  Emissions em;
  NetworkStats stats;
  PacketPool pool;
  Nic nic{4, cfg, &stats, &pool};
  Nic other{5, cfg, &stats, &pool};
  RoutePath path = xy_path(cfg.dims(), 4, 6);
  std::uint32_t next_id = 1;

  SparseNic() {
    EXPECT_EQ(nic.register_flow(sparse_flow(cfg, 0, 4, 6)), 0);
    EXPECT_EQ(other.register_flow(sparse_flow(cfg, 3, 5, 6)), 0);
    EXPECT_EQ(nic.register_flow(sparse_flow(cfg, 7, 4, 6)), 1);
    EXPECT_EQ(nic.register_flow(sparse_flow(cfg, 1000, 4, 6)), 2);
    nic.init_source_credits(cfg.vcs_per_port);
  }

  /// A fresh payload on `flow` (not yet queued).
  PacketSlot packet(FlowId flow) { return offer(pool, next_id++, flow, path, 1, 0); }

  /// Offers one packet on (flow, local index); returns its slot.
  PacketSlot put(FlowId flow, std::int32_t local) {
    const PacketSlot s = packet(flow);
    nic.offer_packet(s, local);
    return s;
  }

  /// Injects at `now` and returns the packet's slot (kInvalidSlot if none
  /// left), consuming its flit and returning the credit as the sink would.
  PacketSlot inject_one(Cycle now) {
    const std::size_t before = em.sent.size();
    em.inject(nic, now);
    if (em.sent.size() == before) return kInvalidSlot;
    const FlitRef f = em.sent.back().flit;
    nic.credit_arrived(f.vc);
    pool.release(f.slot);
    return f.slot;
  }

  /// Injects until the NIC has nothing eligible at `now`.
  std::vector<PacketSlot> drain(Cycle now) {
    std::vector<PacketSlot> order;
    for (PacketSlot s = inject_one(now); s != kInvalidSlot; s = inject_one(now)) {
      order.push_back(s);
    }
    return order;
  }
};

TEST(NicUnit, SparseFlowIdsReachTheirOwnQueues) {
  SparseNic t;
  const PacketSlot a0 = t.put(1000, 2), b0 = t.put(0, 0), c0 = t.put(7, 1);
  const PacketSlot a1 = t.put(1000, 2), b1 = t.put(0, 0);
  EXPECT_EQ(t.nic.queued_packets(), 5);
  // Round-robin over local indices 0 (FlowId 0), 1 (7), 2 (1000); FIFO per flow.
  EXPECT_EQ(t.drain(10), (std::vector<PacketSlot>{b0, c0, a0, b1, a1}));
  EXPECT_TRUE(t.nic.idle());
  EXPECT_EQ(t.pool.live(), 0u);
}

TEST(NicUnit, RequeueFrontJumpsAheadAndKeepsFifo) {
  SparseNic t;
  const PacketSlot p1 = t.put(7, 1), p2 = t.put(7, 1), p3 = t.put(7, 1);
  const PacketSlot retry = t.packet(7);
  t.nic.requeue_front(retry, 1, /*not_before=*/50);
  // Onto an empty queue, a requeued packet is both head and tail.
  const PacketSlot lone = t.packet(0);
  t.nic.requeue_front(lone, 0, /*not_before=*/50);
  const PacketSlot after_lone = t.put(0, 0);
  EXPECT_EQ(t.nic.queued_packets(), 6);
  EXPECT_EQ(t.nic.retry_waiting(49), 2);
  EXPECT_EQ(t.nic.retry_waiting(50), 0);
  // Both heads serve their backoff: nothing injects before cycle 50.
  EXPECT_TRUE(t.drain(49).empty());
  EXPECT_EQ(t.drain(50), (std::vector<PacketSlot>{lone, retry, after_lone, p1, p2, p3}));
  EXPECT_EQ(t.pool.live(), 0u);
}

/// The seed's injector: per-flow FIFOs and a round-robin cursor over every
/// local flow, scanned linearly for the first head out of backoff. The
/// oracle for Nic's sorted nonempty-list picker.
struct LinearScanNic {
  struct Queued {
    PacketSlot slot;
    Cycle not_before;
  };
  std::vector<std::deque<Queued>> queues;  ///< by local index
  std::size_t cursor = 0;
  int free_vcs = 0;
  PacketSlot active = kInvalidSlot;
  int active_flits = 0;
  int next_seq = 0;

  int queued() const {
    int n = 0;
    for (const auto& q : queues) n += static_cast<int>(q.size());
    return n;
  }
  int waiting(Cycle now) const {
    int n = 0;
    for (const auto& q : queues) {
      for (const Queued& p : q) n += p.not_before > now ? 1 : 0;
    }
    return n;
  }
  /// The (slot, seq) the NIC must put on the wire at `now`, if any.
  std::optional<std::pair<PacketSlot, int>> inject(Cycle now, const PacketPool& pool) {
    if (active == kInvalidSlot) {
      if (free_vcs == 0) return std::nullopt;
      for (std::size_t k = 0; k < queues.size() && active == kInvalidSlot; ++k) {
        const std::size_t i = (cursor + k) % queues.size();
        if (queues[i].empty() || queues[i].front().not_before > now) continue;
        active = queues[i].front().slot;
        queues[i].pop_front();
        active_flits = pool.at(active).flits;
        next_seq = 0;
        free_vcs -= 1;
        cursor = (i + 1) % queues.size();
      }
      if (active == kInvalidSlot) return std::nullopt;
    }
    const std::pair<PacketSlot, int> flit{active, next_seq};
    if (++next_seq == active_flits) active = kInvalidSlot;
    return flit;
  }
};

// Random offers, backed-off retransmissions, queue drops, credit returns
// and injections at random cycles: every flit the NIC puts on the wire must
// be the one the linear scan picks, and the queue counters must agree.
TEST(NicUnit, PickerMatchesLinearScanUnderRandomTraffic) {
  const NocConfig cfg = cfg4();
  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng = make_stream(seed, 0x41C);
    Emissions em;
    NetworkStats stats;
    PacketPool pool;
    Nic nic(4, cfg, &stats, &pool);
    // Two to six local flows with sparse, ascending FlowIds.
    std::vector<FlowId> ids;
    const std::size_t n_flows = 2 + rng.below(5);
    for (FlowId id = static_cast<FlowId>(rng.below(3)); ids.size() < n_flows;
         id += 1 + static_cast<FlowId>(rng.below(50))) {
      ASSERT_EQ(nic.register_flow(sparse_flow(cfg, id, 4, 6)),
                static_cast<std::int32_t>(ids.size()));
      ids.push_back(id);
    }
    const auto max_vcs = static_cast<std::uint64_t>(cfg.vcs_per_port);
    const int vcs = 1 + static_cast<int>(rng.below(max_vcs));
    nic.init_source_credits(vcs);
    LinearScanNic model;
    model.queues.resize(ids.size());
    model.free_vcs = vcs;
    std::vector<VcId> credits_owed;  // receive VCs of packets whose tail left
    std::uint32_t next_id = 1;
    Cycle now = 1;

    for (int op = 0; op < 300; ++op) {
      now += rng.below(3);
      const auto local = static_cast<std::int32_t>(rng.below(ids.size()));
      const FlowId flow = ids[static_cast<std::size_t>(local)];
      auto& queue = model.queues[static_cast<std::size_t>(local)];
      switch (rng.below(8)) {
        case 0:
        case 1: {
          const PacketSlot s =
              offer(pool, next_id++, flow, path, 1 + static_cast<int>(rng.below(3)), now);
          nic.offer_packet(s, local);
          queue.push_back({s, 0});
          break;
        }
        case 2: {
          const PacketSlot s =
              offer(pool, next_id++, flow, path, 1 + static_cast<int>(rng.below(3)), now);
          const Cycle not_before = now + rng.below(20);
          nic.requeue_front(s, local, not_before);
          queue.push_front({s, not_before});
          break;
        }
        case 3: {
          std::vector<PacketSlot> dropped;
          nic.drop_flow_queue(flow, local, [&](PacketSlot s) {
            dropped.push_back(s);
            pool.release(s);
          });
          std::vector<PacketSlot> expected;
          for (const auto& q : queue) expected.push_back(q.slot);
          ASSERT_EQ(dropped, expected) << "op " << op;
          queue.clear();
          break;
        }
        case 4:
          if (!credits_owed.empty()) {
            const std::size_t k = rng.below(credits_owed.size());
            nic.credit_arrived(credits_owed[k]);
            credits_owed.erase(credits_owed.begin() + static_cast<std::ptrdiff_t>(k));
            model.free_vcs += 1;
          }
          break;
        default: {
          const std::size_t before = em.sent.size();
          em.inject(nic, now);
          const auto want = model.inject(now, pool);
          ASSERT_EQ(em.sent.size(), before + (want.has_value() ? 1 : 0))
              << "op " << op << " at cycle " << now;
          if (!want.has_value()) break;
          const FlitRef f = em.sent.back().flit;
          ASSERT_EQ(f.slot, want->first) << "op " << op << " at cycle " << now;
          ASSERT_EQ(f.seq, want->second) << "op " << op << " at cycle " << now;
          if (is_tail(f.type)) credits_owed.push_back(f.vc);
          pool.release(f.slot);  // the sink consumes the flit
          break;
        }
      }
      ASSERT_EQ(nic.queued_packets(), model.queued()) << "op " << op;
      ASSERT_EQ(nic.retry_waiting(now), model.waiting(now)) << "op " << op;
    }
    // Everything left drains in the model's order once credits return.
    for (const VcId vc : credits_owed) nic.credit_arrived(vc);
    model.free_vcs += static_cast<int>(credits_owed.size());
    for (now += 20; !nic.idle(); ++now) {
      em.inject(nic, now);
      const auto want = model.inject(now, pool);
      ASSERT_TRUE(want.has_value());
      const FlitRef f = em.sent.back().flit;
      ASSERT_EQ(f.slot, want->first);
      ASSERT_EQ(f.seq, want->second);
      if (is_tail(f.type)) {
        nic.credit_arrived(f.vc);
        model.free_vcs += 1;
      }
      pool.release(f.slot);
    }
    EXPECT_EQ(model.queued(), 0);
    EXPECT_EQ(pool.live(), 0u);
  }
}

TEST(NicUnit, DropAndRewriteTouchOnlyTheirFlow) {
  SparseNic t;
  const PacketSlot a0 = t.put(1000, 2), b0 = t.put(0, 0), a1 = t.put(1000, 2);
  const PacketSlot c0 = t.put(7, 1), a2 = t.put(1000, 2), b1 = t.put(0, 0);

  const SourceRoute detour = SourceRoute::encode(xy_path(t.cfg.dims(), 4, 14));
  const SourceRoute original = t.pool.at(c0).route;
  ASSERT_NE(detour, original);
  t.nic.rewrite_queued_routes(0, 0, detour);
  EXPECT_EQ(t.pool.at(b0).route, detour);
  EXPECT_EQ(t.pool.at(b1).route, detour);
  EXPECT_EQ(t.pool.at(c0).route, original);
  EXPECT_EQ(t.pool.at(a1).route, original);

  std::vector<PacketSlot> dropped;
  EXPECT_EQ(t.nic.drop_flow_queue(1000, 2,
                                  [&](PacketSlot s) {
                                    dropped.push_back(s);
                                    t.pool.release(s);
                                  }),
            3);
  EXPECT_EQ(dropped, (std::vector<PacketSlot>{a0, a1, a2}));
  EXPECT_EQ(t.nic.queued_packets(), 3);
  EXPECT_EQ(t.nic.drop_flow_queue(1000, 2, [](PacketSlot) { FAIL(); }), 0);
  EXPECT_EQ(t.drain(10), (std::vector<PacketSlot>{b0, c0, b1}));
  // The emptied flow takes new packets again.
  const PacketSlot a3 = t.put(1000, 2);
  EXPECT_EQ(t.drain(11), (std::vector<PacketSlot>{a3}));
  EXPECT_EQ(t.pool.live(), 0u);
}

TEST(NicUnitDeathTest, RejectsUnregisteredWrongNicAndDuplicateFlows) {
  SparseNic t;
  EXPECT_DEATH(t.nic.offer_packet(t.packet(7), 0), "unregistered flow");
  EXPECT_DEATH(t.nic.offer_packet(t.packet(5000), 3), "unregistered flow");
  EXPECT_DEATH(t.nic.requeue_front(t.packet(3), 0, 0), "wrong NIC");
  EXPECT_DEATH(t.nic.drop_flow_queue(3, 0, [](PacketSlot) {}), "not sourced here");
  EXPECT_DEATH(t.nic.rewrite_queued_routes(3, 0, SourceRoute{}), "not sourced here");
  EXPECT_DEATH(t.nic.register_flow(sparse_flow(t.cfg, 0, 4, 6)), "registered twice");
  EXPECT_DEATH(t.nic.register_flow(sparse_flow(t.cfg, 1000, 4, 6)), "registered twice");
  EXPECT_DEATH(t.nic.register_flow(sparse_flow(t.cfg, 5, 4, 6)), "out of FlowId order");
  EXPECT_DEATH(t.nic.register_flow(sparse_flow(t.cfg, 3, 5, 6)), "wrong NIC");
}

}  // namespace
}  // namespace smartnoc::noc
