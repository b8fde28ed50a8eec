#include "noc/router.hpp"

#include <bit>
#include <string>

#include "common/error.hpp"

namespace smartnoc::noc {

namespace {

/// Calls f(i) for every set bit i of a port mask, ascending (= kAllDirs order).
template <typename F>
void for_each_port(unsigned mask, F&& f) {
  for (; mask != 0; mask &= mask - 1) f(std::countr_zero(mask));
}

unsigned port_bit(Dir d) { return 1u << dir_index(d); }

}  // namespace

Router::Router(NodeId id, const NocConfig& cfg, const PacketPool* pool)
    : vcs_(kNumDirs * cfg.vcs_per_port, cfg.vc_depth_flits),
      id_(id),
      vcs_per_port_(cfg.vcs_per_port),
      pool_(pool) {
  static_assert(sizeof(Masks) + sizeof(VcBlock) + 2 * sizeof(int) + sizeof(bool) <= 64,
                "masks, VC block, id, vcs_per_port and the active-set flag must share the "
                "first cache line");
  SMARTNOC_CHECK(pool_ != nullptr, "router needs a packet pool");
  SMARTNOC_CHECK(kNumDirs * vcs_per_port_ <= kMaxArbInputs,
                 "vcs_per_port exceeds the switch-allocation mask width");
  for (auto& op : outputs_) {
    op.arb = RoundRobinArbiter(kNumDirs * vcs_per_port_);
  }
}

void Router::enable_output(Dir o, int vcs) {
  OutputPort& op = out(o);
  SMARTNOC_CHECK(!op.enabled, "output enabled twice");
  op.enabled = true;
  for (VcId v = 0; v < vcs; ++v) op.free_vcs.push_back(v);
}

void Router::accept_flit(Dir in_dir, FlitRef flit, Cycle arrival) {
  InputPort& ip = in(in_dir);
  SMARTNOC_CHECK(ip.staging_count < 2,
                 "staging ring overflow: an input holds at most two staged flits "
                 "(one on the wire, one awaiting BW)");
  ip.staging[static_cast<std::size_t>((ip.staging_head + ip.staging_count) & 1)] =
      StagedFlit{flit, arrival};
  ip.staging_count += 1;
  masks_.staged |= port_bit(in_dir);
  // A head lands in a freed VC at slot 0: warm that VC's header and slots,
  // which Buffer Write fills from next cycle on. (BW rejects an invalid
  // VC id.)
  if (is_head(flit.type) &&
      static_cast<unsigned>(flit.vc) < static_cast<unsigned>(vcs_per_port_)) {
    vcs_.prefetch_head_push(vc_index(in_dir, flit.vc));
  }
}

void Router::credit_arrived(Dir out_dir, VcId vc) {
  OutputPort& op = out(out_dir);
  SMARTNOC_CHECK(op.enabled, "credit for a disabled output");
  SMARTNOC_CHECK(op.free_vcs.size() < vcs_per_port_,
                 "credit overflow: more credits than VCs");
  op.free_vcs.push_back(vc);
}

Router::Decoded Router::buffer_write(Cycle now, ActivityCounters& act) {
  Decoded decoded;
  for_each_port(masks_.staged, [&](int d) {
    InputPort& ip = inputs_[static_cast<std::size_t>(d)];
    // FIFO drain: per-port wire delay is constant, so arrivals are ordered
    // and a blocked front flit implies the one behind it is blocked too.
    while (ip.staging_count > 0) {
      StagedFlit& sf = ip.staging[static_cast<std::size_t>(ip.staging_head)];
      if (sf.arrival >= now) break;  // still on the wire (baseline-mesh link cycle)
      FlitRef f = sf.flit;
      ip.staging_head ^= 1;
      ip.staging_count -= 1;
      SMARTNOC_CHECK(f.vc >= 0 && f.vc < vcs_per_port_, "flit carries an invalid VC");
      const Dir in_dir = dir_from_index(d);
      const int b = vc_index(in_dir, f.vc);
      VcBuffer& vc = vcs_[b];
      f.buffered_at = now;
      if (is_head(f.type)) {
        SMARTNOC_CHECK(vc.empty() && !vc.has_request(),
                       "head flit arriving into a busy VC: upstream flow control broke");
        // Decode this router's 2-bit route entry relative to the arrival
        // port - the one cold-payload read of the whole pipeline.
        const Dir o = pool_->at(f.slot).route.output_at(f.hop_index, in_dir);
        vc.set_request(o, f.slot);
        masks_.pending.set(b);
        decoded.ins |= 1u << d;
        decoded.outs |= port_bit(o);
      } else {
        SMARTNOC_CHECK(vc.has_request(), "body flit with no open packet on its VC");
      }
      vc.push(f);
      masks_.buffered += 1;
      act.buffer_writes += 1;
    }
    if (ip.staging_count == 0) masks_.staged &= ~(1u << d);
  });
  return decoded;
}

unsigned Router::switch_allocation(Cycle now, ActivityCounters& act) {
  if (masks_.pending.none()) return 0;
  if (stall_until_ != 0 && now <= stall_until_) return 0;  // RouterStall fault
  // Requests come from pending heads on unlocked inputs; a VC is read only
  // for a set bit. `locked` is the one input that changes during SA: a
  // grant at an earlier output hides that whole input port from later
  // outputs within the same cycle, which `masked` reproduces exactly.
  ArbMask masked;  // all (input,vc) bits of locked input ports
  for_each_port(masks_.locked, [&](int i) { masked.set_range(i * vcs_per_port_, vcs_per_port_); });
  const ArbMask cand = masks_.pending.without(masked);
  std::array<ArbMask, kNumDirs> req{};
  unsigned requested = 0;  // outputs with at least one request
  for (int b = cand.find_next(0); b >= 0; b = cand.find_next(b + 1)) {
    const VcBuffer& vc = vcs_[b];
    if (vc.front().buffered_at >= now) continue;  // BW this cycle: allocate next cycle
    const int o = dir_index(vc.requested_out());
    req[static_cast<std::size_t>(o)].set(b);
    requested |= 1u << o;
  }
  // Fixed output order keeps allocation deterministic; per-output round-
  // robin over (input, vc) provides fairness (pinned by tests).
  unsigned granted = 0;
  for_each_port(requested, [&](int oi) {
    OutputPort& op = outputs_[static_cast<std::size_t>(oi)];
    if (!op.enabled || op.hold.has_value() || op.free_vcs.empty()) return;
    const ArbMask m = req[static_cast<std::size_t>(oi)].without(masked);
    if (m.none()) return;
    const auto winner = op.arb.arbitrate(m);
    SMARTNOC_CHECK(winner.has_value(), "arbiter must pick among requests");
    const int win_in = *winner / vcs_per_port_;
    const VcId win_vc = static_cast<VcId>(*winner - win_in * vcs_per_port_);
    const VcId out_vc = op.free_vcs.pop_front();
    op.hold = Hold{dir_from_index(win_in), win_vc, out_vc};
    masks_.holds |= 1u << oi;
    masks_.locked |= 1u << win_in;
    masks_.pending.reset(*winner);
    act.alloc_grants += 1;
    masked.set_range(win_in * vcs_per_port_, vcs_per_port_);
    granted |= 1u << oi;
  });
  return granted;
}

Router::Masks Router::derive_masks() const {
  Masks m;
  for (Dir d : kAllDirs) {
    if (in(d).staging_count > 0) m.staged |= port_bit(d);
    const OutputPort& op = out(d);
    if (op.hold.has_value()) {
      m.holds |= port_bit(d);
      m.locked |= port_bit(op.hold->in);
    }
  }
  for (int b = 0; b < vcs_.size(); ++b) {
    const VcBuffer& vc = vcs_[b];
    m.buffered += vc.occupancy();
    if (vc.has_request() && !vc.empty() && is_head(vc.front().type)) m.pending.set(b);
  }
  // A granted head stays buffered until ST pops it the next cycle: its VC
  // is held, not pending.
  for_each_port(m.holds, [&](int oi) {
    const Hold& h = *outputs_[static_cast<std::size_t>(oi)].hold;
    m.pending.reset(vc_index(h.in, h.in_vc));
  });
  return m;
}

void Router::reset_output_credits(Dir o, int vcs, const std::array<bool, 16>& busy) {
  OutputPort& op = out(o);
  op.free_vcs = VcQueue{};
  if (!op.enabled) return;
  for (VcId v = 0; v < vcs; ++v) {
    if (!busy[static_cast<std::size_t>(v)]) op.free_vcs.push_back(v);
  }
}

void Router::mark_busy_input_vcs(Dir in_dir, std::array<bool, 16>& busy) const {
  const InputPort& ip = in(in_dir);
  for (VcId v = 0; v < vcs_per_port_; ++v) {
    const VcBuffer& vc = vcs_[vc_index(in_dir, v)];
    if (!vc.empty() || vc.has_request()) busy[static_cast<std::size_t>(v)] = true;
  }
  // Staged flits already carry their endpoint VC id (assigned at SA by the
  // upstream origin) but have not reached the VC yet.
  for (int k = 0; k < ip.staging_count; ++k) {
    const StagedFlit& sf = ip.staging[static_cast<std::size_t>((ip.staging_head + k) & 1)];
    busy[static_cast<std::size_t>(sf.flit.vc)] = true;
  }
}

int Router::purge_flows(const std::vector<std::uint8_t>& affected,
                        const std::function<void(const FlitRef&)>& on_removed) {
  int removed = 0;
  auto hit = [&](PacketSlot s) {
    const FlowId fl = pool_->at(s).flow;
    return fl >= 0 && static_cast<std::size_t>(fl) < affected.size() &&
           affected[static_cast<std::size_t>(fl)] != 0;
  };
  // 1) Switch holds whose granted packet dies: release the hold (the VC
  //    contents go in pass 2). A hold's packet is identified through its
  //    input VC's owner - valid until clear_request.
  for (Dir o : kAllDirs) {
    OutputPort& op = out(o);
    if (!op.hold.has_value()) continue;
    const PacketSlot owner = vcs_[vc_index(op.hold->in, op.hold->in_vc)].owner();
    if (owner == kInvalidSlot || !hit(owner)) continue;
    op.hold.reset();
  }
  // 2) VC contents and open requests. The owner field identifies mid-stream
  //    VCs (momentarily empty, body still upstream) as well as full ones.
  for (int b = 0; b < vcs_.size(); ++b) {
    VcBuffer& vc = vcs_[b];
    const PacketSlot owner = vc.owner();
    if (owner == kInvalidSlot || !hit(owner)) continue;
    while (!vc.empty()) {
      on_removed(vc.pop());
      ++removed;
    }
    vc.clear_request();
  }
  // 3) Staging rings, rebuilt keeping the survivors in FIFO order.
  for (Dir i : kAllDirs) {
    InputPort& ip = in(i);
    std::array<StagedFlit, 2> keep{};
    int kept = 0;
    const int n = ip.staging_count;
    for (int k = 0; k < n; ++k) {
      const StagedFlit sf = ip.staging[static_cast<std::size_t>((ip.staging_head + k) & 1)];
      if (hit(sf.flit.slot)) {
        on_removed(sf.flit);
        ++removed;
      } else {
        keep[static_cast<std::size_t>(kept++)] = sf;
      }
    }
    ip.staging = keep;
    ip.staging_head = 0;
    ip.staging_count = kept;
  }
  rebuild_masks();
  return removed;
}

int Router::occupied_vcs() const {
  int n = 0;
  for (int b = 0; b < vcs_.size(); ++b) n += vcs_[b].empty() ? 0 : 1;
  return n;
}

}  // namespace smartnoc::noc
