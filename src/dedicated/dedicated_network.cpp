#include "dedicated/dedicated_network.hpp"

#include <string>

#include "common/error.hpp"

namespace smartnoc::dedicated {

using noc::FlitRef;
using noc::FlitType;
using noc::PacketPayload;
using noc::PacketSlot;

DedicatedNetwork::DedicatedNetwork(const NocConfig& cfg, noc::FlowSet flows)
    : cfg_(cfg), flows_(std::move(flows)) {
  cfg_.validate();
  const MeshDims dims = cfg_.dims();
  nic_rx_.resize(static_cast<std::size_t>(dims.nodes()));
  sources_.resize(static_cast<std::size_t>(flows_.size()));

  // Count in-flows per destination to decide where sink routers exist.
  std::vector<int> inflows(static_cast<std::size_t>(dims.nodes()), 0);
  for (const auto& f : flows_) inflows[static_cast<std::size_t>(f.dst)] += 1;

  for (const auto& f : flows_) {
    Source& s = sources_[static_cast<std::size_t>(f.id)];
    s.mm = dims.hop_distance(f.src, f.dst);
    s.dst = f.dst;
    s.contended = inflows[static_cast<std::size_t>(f.dst)] > 1;
    for (VcId v = 0; v < cfg_.vcs_per_port; ++v) s.free_vcs.push_back(v);
    if (s.contended) {
      Sink& sink = sinks_[f.dst];
      if (sink.inputs.empty()) {
        sink.node = f.dst;
        for (VcId v = 0; v < cfg_.vcs_per_port; ++v) sink.nic_free_vcs.push_back(v);
      }
      SinkInput in;
      in.flow = f.id;
      s.sink_input = static_cast<int>(sink.inputs.size());
      sink.inputs.push_back(std::move(in));
    }
    // Uncontended flows deliver straight into the NIC: the source's own
    // free-VC pool *is* the destination NIC's receive pool.
  }
  for (auto& [node, sink] : sinks_) {
    // A sink arbitrates over every (in-flow, VC) pair; wider fan-in than the
    // arbiter's fixed mask is a configuration the design cannot build.
    const int width = static_cast<int>(sink.inputs.size()) * cfg_.vcs_per_port;
    if (width > noc::kMaxArbInputs) {
      throw ConfigError("dedicated design: sink at node " + std::to_string(node) + " has " +
                        std::to_string(sink.inputs.size()) + " in-flows x " +
                        std::to_string(cfg_.vcs_per_port) + " VCs = " + std::to_string(width) +
                        " arbiter inputs, above the limit of " +
                        std::to_string(noc::kMaxArbInputs));
    }
    sink.arb = noc::RoundRobinArbiter(width);
    sink.vcs = noc::VcBlock(width, cfg_.vc_depth_flits);
  }
}

bool DedicatedNetwork::has_sink_router(NodeId dst) const { return sinks_.count(dst) > 0; }

int DedicatedNetwork::link_mm(FlowId flow) const {
  return sources_.at(static_cast<std::size_t>(flow)).mm;
}

void DedicatedNetwork::offer_packet(FlowId flow, Cycle created) {
  const auto& f = flows_.at(flow);
  if (observer_ != nullptr) observer_->packet_offered(flow, f.src, created);
  const PacketSlot slot = pool_.alloc();
  PacketPayload& pkt = pool_.at(slot);
  pkt.id = next_packet_id_++;
  pkt.flow = flow;
  pkt.src = f.src;
  pkt.dst = f.dst;
  pkt.flits = cfg_.flits_per_packet();
  pkt.route = f.route;  // unused by dedicated links; kept for uniformity
  pkt.created = created;
  pkt.injected = 0;
  sources_[static_cast<std::size_t>(flow)].queue.push_back(slot);
}

void DedicatedNetwork::nic_deliver(NodeId dst, const FlitRef& f, Cycle arrival, bool via_sink) {
  auto& rx = nic_rx_[static_cast<std::size_t>(dst)];
  auto& a = rx.assembling[f.slot];
  if (is_head(f.type)) a.second = arrival;
  a.first += 1;
  if (is_tail(f.type)) {
    const PacketPayload& pkt = pool_.at(f.slot);
    stats_.record_packet(pkt.flow, a.first, pkt.created, pkt.injected, a.second, arrival);
    rx.assembling.erase(f.slot);
    // Return the receive credit: to the sink router's NIC pool when the
    // packet came through a sink, else to the flow's private source.
    PendingCredit c;
    c.due = arrival + 1;
    c.vc = f.vc;
    c.flow = pkt.flow;
    c.to_sink_nic = via_sink;
    c.sink_node = dst;
    credits_.push_back(c);
  }
  pool_.release(f.slot);  // the consumed flit's reference
}

void DedicatedNetwork::sink_bw(Sink& s) {
  for (std::size_t i = 0; i < s.inputs.size(); ++i) {
    SinkInput& in = s.inputs[i];
    for (std::size_t k = 0; k < in.staging.size();) {
      if (in.staging[k].second >= now_) {
        ++k;
        continue;
      }
      FlitRef f = in.staging[k].first;
      in.staging.erase(in.staging.begin() + static_cast<std::ptrdiff_t>(k));
      auto& vc = sink_vc(s, static_cast<int>(i), f.vc);
      f.buffered_at = now_;
      vc.push(f);
      if (is_head(f.type)) vc.set_request(Dir::Core);
      stats_.activity().buffer_writes += 1;
    }
  }
}

void DedicatedNetwork::sink_st(Sink& s) {
  if (!s.hold.has_value()) return;
  auto& in = s.inputs[static_cast<std::size_t>(s.hold->first)];
  auto& vc = sink_vc(s, s.hold->first, s.hold->second);
  if (vc.empty() || vc.front().buffered_at >= now_) return;
  FlitRef f = vc.pop();
  stats_.activity().buffer_reads += 1;
  stats_.activity().xbar_flit_traversals += 1;
  stats_.activity().pipeline_latches += 1;
  const VcId freed = s.hold->second;
  f.vc = s.hold_out_vc;
  nic_deliver(s.node, f, now_, /*via_sink=*/true);
  if (is_tail(f.type)) {
    vc.clear_request();
    in.locked = false;
    // Input VC freed: credit back to the feeding source.
    PendingCredit c;
    c.due = now_ + 1;
    c.flow = in.flow;
    c.vc = freed;
    c.to_sink_nic = false;
    credits_.push_back(c);
    s.hold.reset();
  }
}

void DedicatedNetwork::sink_sa(Sink& s) {
  if (s.hold.has_value() || s.nic_free_vcs.empty()) return;
  const int n_in = static_cast<int>(s.inputs.size());
  noc::ArbMask req;
  bool any = false;
  for (int i = 0; i < n_in; ++i) {
    if (s.inputs[static_cast<std::size_t>(i)].locked) continue;
    for (int v = 0; v < cfg_.vcs_per_port; ++v) {
      const auto& vc = sink_vc(s, i, v);
      if (vc.empty() || !vc.has_request()) continue;
      if (!is_head(vc.front().type)) continue;
      if (vc.front().buffered_at >= now_) continue;
      req.set(i * cfg_.vcs_per_port + v);
      any = true;
    }
  }
  if (!any) return;
  const auto winner = s.arb.arbitrate(req);
  SMARTNOC_CHECK(winner.has_value(), "sink arbiter must grant");
  const int in_idx = *winner / cfg_.vcs_per_port;
  const VcId in_vc = static_cast<VcId>(*winner % cfg_.vcs_per_port);
  s.hold = std::pair<int, VcId>{in_idx, in_vc};
  s.hold_out_vc = s.nic_free_vcs.front();
  s.nic_free_vcs.pop_front();
  s.inputs[static_cast<std::size_t>(in_idx)].locked = true;
  stats_.activity().alloc_grants += 1;
}

void DedicatedNetwork::tick() {
  if (observer_wants_deltas_) {
    const noc::ActivityCounters before = stats_.activity();
    tick_impl();
    observer_->activity_delta(noc::activity_diff(stats_.activity(), before), now_);
    return;
  }
  tick_impl();
}

void DedicatedNetwork::tick_impl() {
  now_ += 1;

  // Phase 1: credits.
  for (std::size_t k = 0; k < credits_.size();) {
    if (credits_[k].due <= now_) {
      const PendingCredit c = credits_[k];
      credits_[k] = credits_.back();
      credits_.pop_back();
      if (c.to_sink_nic) {
        sinks_.at(c.sink_node).nic_free_vcs.push_back(c.vc);
      } else {
        sources_[static_cast<std::size_t>(c.flow)].free_vcs.push_back(c.vc);
      }
    } else {
      ++k;
    }
  }

  // Phases 2-4 at the sink routers (BW, ST, SA - same order as the mesh).
  for (auto& [node, sink] : sinks_) sink_bw(sink);
  for (auto& [node, sink] : sinks_) sink_st(sink);
  for (auto& [node, sink] : sinks_) sink_sa(sink);

  // Phase 5: per-flow private injection, one flit per flow per cycle.
  for (auto& s : sources_) {
    if (!s.active.has_value()) {
      if (s.queue.empty() || s.free_vcs.empty()) continue;
      if (pool_.at(s.queue.front()).created >= now_) continue;  // created this cycle
      s.active = s.queue.front();
      s.queue.pop_front();
      s.next_seq = 0;
      s.active_vc = s.free_vcs.front();
      s.free_vcs.pop_front();
      PacketPayload& pkt = pool_.at(*s.active);
      pkt.injected = now_;
      s.active_flits = pkt.flits;
    }
    FlitRef f;
    const int last = s.active_flits - 1;
    f.type = s.active_flits == 1 ? FlitType::HeadTail
             : s.next_seq == 0 ? FlitType::Head
             : s.next_seq == last ? FlitType::Tail
                                  : FlitType::Body;
    f.slot = *s.active;
    f.seq = static_cast<std::uint8_t>(s.next_seq);
    f.vc = s.active_vc;
    pool_.add_ref(f.slot);  // the in-flight flit's reference
    s.next_seq += 1;
    const bool done = s.next_seq == s.active_flits;
    stats_.activity().link_flit_mm += static_cast<std::uint64_t>(s.mm);
    if (s.contended) {
      auto& sink = sinks_.at(s.dst);
      sink.inputs[static_cast<std::size_t>(s.sink_input)].staging.emplace_back(f, now_);
      stats_.activity().pipeline_latches += 1;
    } else {
      nic_deliver(s.dst, f, now_, /*via_sink=*/false);
    }
    if (done) {
      pool_.release(*s.active);  // transmit reference; may recycle the slot
      s.active.reset();
    }
  }
}

bool DedicatedNetwork::drained() const {
  if (!credits_.empty()) return false;
  for (const auto& s : sources_) {
    if (s.active.has_value() || !s.queue.empty()) return false;
  }
  for (const auto& [node, sink] : sinks_) {
    if (sink.hold.has_value()) return false;
    for (const auto& in : sink.inputs) {
      if (!in.staging.empty()) return false;
    }
    for (int b = 0; b < sink.vcs.size(); ++b) {
      if (!sink.vcs[b].empty()) return false;
    }
  }
  for (const auto& rx : nic_rx_) {
    if (!rx.assembling.empty()) return false;
  }
  return true;
}

noc::StallReport DedicatedNetwork::stall_report() const {
  noc::StallReport report;
  report.cycle = now_;
  report.live_packets = pool_.live();
  for (const auto& s : sources_) {
    report.queued_packets += s.queue.size();
  }
  for (const auto& [node, sink] : sinks_) {
    bool busy = sink.hold.has_value();
    for (const auto& in : sink.inputs) busy = busy || !in.staging.empty();
    for (int b = 0; b < sink.vcs.size(); ++b) {
      const noc::VcBuffer& vc = sink.vcs[b];
      if (!vc.empty()) {
        report.occupied_vcs += 1;
        busy = true;
      }
    }
    if (busy) report.stuck_routers.push_back(node);
  }
  for (noc::PacketSlot s = 0; s < pool_.capacity(); ++s) {
    if (pool_.refs(s) == 0) continue;
    const noc::PacketPayload& p = pool_.at(s);
    if (!report.have_oldest || p.created < report.oldest_packet_created) {
      report.have_oldest = true;
      report.oldest_packet_id = p.id;
      report.oldest_packet_flow = p.flow;
      report.oldest_packet_created = p.created;
    }
  }
  return report;
}

}  // namespace smartnoc::dedicated
