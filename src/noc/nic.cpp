#include "noc/nic.hpp"

#include <algorithm>

namespace smartnoc::noc {

Nic::Nic(NodeId node, const NocConfig& cfg, NetworkStats* stats, PacketPool* pool)
    : node_(node), vcs_per_port_(cfg.vcs_per_port), stats_(stats), pool_(pool) {
  SMARTNOC_CHECK(stats_ != nullptr && pool_ != nullptr, "NIC needs stats and the packet pool");
}

std::int32_t Nic::register_flow(const Flow& flow) {
  SMARTNOC_CHECK(flow.src == node_, "flow registered at the wrong NIC");
  // Ascending FlowIds (the network's registration order) make the
  // duplicate check one compare with the last registered flow.
  SMARTNOC_CHECK(local_flows_.empty() || local_flows_.back().id < flow.id,
                 "flow registered twice or out of FlowId order");
  local_flows_.push_back(LocalFlow{flow.id, kInvalidSlot, kInvalidSlot});
  return static_cast<std::int32_t>(local_flows_.size() - 1);
}

void Nic::init_source_credits(int vcs) {
  SMARTNOC_CHECK(free_vcs_.empty(), "source credits initialized twice");
  for (VcId v = 0; v < vcs; ++v) free_vcs_.push_back(v);
}

Nic::LocalFlow& Nic::local_flow(FlowId flow, std::int32_t local, const char* what) {
  SMARTNOC_CHECK(local >= 0 && static_cast<std::size_t>(local) < local_flows_.size() &&
                     local_flows_[static_cast<std::size_t>(local)].id == flow,
                 what);
  return local_flows_[static_cast<std::size_t>(local)];
}

void Nic::offer_packet(PacketSlot pkt_slot, std::int32_t local) {
  PacketPayload& pkt = pool_->at(pkt_slot);
  LocalFlow& lf = local_flow(pkt.flow, local, "packet offered for an unregistered flow");
  pkt.next = kInvalidSlot;
  pkt.not_before = 0;
  if (lf.head == kInvalidSlot) {
    lf.head = pkt_slot;
    const auto pos = static_cast<std::size_t>(local);
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), pos), pos);
  } else {
    pool_->at(lf.tail).next = pkt_slot;
  }
  lf.tail = pkt_slot;
  queued_total_ += 1;
}

void Nic::requeue_front(PacketSlot pkt_slot, std::int32_t local, Cycle not_before) {
  PacketPayload& pkt = pool_->at(pkt_slot);
  LocalFlow& lf = local_flow(pkt.flow, local, "retransmission re-queued at the wrong NIC");
  pkt.next = lf.head;
  pkt.not_before = not_before;
  if (lf.head == kInvalidSlot) {
    lf.tail = pkt_slot;
    const auto pos = static_cast<std::size_t>(local);
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), pos), pos);
  }
  lf.head = pkt_slot;
  queued_total_ += 1;
}

std::optional<FlitRef> Nic::inject(Cycle now) {
  if (!active_.has_value()) {
    if (queued_total_ == 0) return std::nullopt;
    // Round-robin over flows with queued packets; needs a free endpoint VC.
    if (free_vcs_.empty()) return std::nullopt;
    // queued_total_ > 0 guarantees a nonempty slot; the cyclic walk from
    // the round-robin cursor visits nonempty flows in exactly the order a
    // linear scan of every flow would, skipping packets still in
    // retransmission backoff. Fault-free runs exit on the first probe.
    std::size_t chosen = local_flows_.size();  // sentinel: nothing picked
    const std::size_t n = nonempty_.size();
    const auto it = std::lower_bound(nonempty_.begin(), nonempty_.end(), rr_next_);
    const auto start = static_cast<std::size_t>(it - nonempty_.begin());
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = nonempty_[(start + k) % n];
      if (pool_->at(local_flows_[i].head).not_before <= now) {
        chosen = i;
        break;
      }
    }
    if (chosen == local_flows_.size()) return std::nullopt;
    LocalFlow& lf = local_flows_[chosen];
    ActiveTx tx;
    tx.slot = lf.head;
    PacketPayload& pkt = pool_->at(tx.slot);
    lf.head = pkt.next;
    queued_total_ -= 1;
    if (lf.head == kInvalidSlot) {
      lf.tail = kInvalidSlot;
      nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), chosen));
    }
    pkt.injected = now;  // head flit hits the injection link this cycle
    tx.flits = pkt.flits;
    tx.vc = free_vcs_.pop_front();
    active_ = tx;
    rr_next_ = (chosen + 1) % local_flows_.size();
  }

  // Stream one flit of the active packet.
  ActiveTx& tx = *active_;
  FlitRef f;
  const int last = tx.flits - 1;
  f.type = tx.flits == 1 ? FlitType::HeadTail
           : tx.next_seq == 0 ? FlitType::Head
           : tx.next_seq == last ? FlitType::Tail
                                 : FlitType::Body;
  f.slot = tx.slot;
  f.seq = static_cast<std::uint8_t>(tx.next_seq);
  f.vc = tx.vc;
  f.hop_index = 0;
  // The in-flight flit's reference. Under shards the refcount op is logged
  // for the epilogue; the slot stays alive meanwhile because the transmit
  // reference below is deferred the same way (adds replay before releases).
  if (sink_ != nullptr) {
    sink_->pool_add_refs.push_back(tx.slot);
  } else {
    pool_->add_ref(tx.slot);
  }
  tx.next_seq += 1;
  if (tx.next_seq == tx.flits) {
    // Tail left: drop the transmit reference. The tail's own reference
    // keeps the slot alive until its consumer releases it (under full
    // bypass, the destination NIC within the same cycle).
    if (sink_ != nullptr) {
      sink_->pool_releases.push_back(tx.slot);
    } else {
      pool_->release(tx.slot);
    }
    active_.reset();
  }
  return f;
}

std::optional<VcId> Nic::accept_flit(const FlitRef& flit, Cycle now) {
  const PacketPayload& pkt = pool_->at(flit.slot);
  SMARTNOC_CHECK(pkt.dst == node_, "flit delivered to the wrong NIC");
  SMARTNOC_CHECK(flit.hop_index == pkt.route.entries(),
                 "flit reached the NIC with route entries left");
  Assembly* a = nullptr;
  for (Assembly& cand : assembling_) {
    if (cand.slot == flit.slot) {
      a = &cand;
      break;
    }
  }
  if (a == nullptr) {
    assembling_.push_back(Assembly{flit.slot, 0, 0, flit.vc});
    a = &assembling_.back();
  }
  if (is_head(flit.type)) {
    a->head_arrival = now;
    // The tail (flits_per_packet - 1 cycles on) updates the flow's stats
    // row; under shards the epilogue does, serially.
    if (sink_ == nullptr) stats_->prefetch_flow(pkt.flow);
  }
  a->flits += 1;
  SMARTNOC_CHECK(static_cast<int>(assembling_.size()) <= vcs_per_port_,
                 "more packets in reassembly than receive VCs");
  std::optional<VcId> freed;
  if (is_tail(flit.type)) {
    // Completed packet: under shards the stats write is deferred with every
    // argument captured now (the payload may recycle before the epilogue).
    if (sink_ != nullptr) {
      sink_->deliveries.push_back(ShardSink::Delivery{pkt.flow, a->flits, pkt.created,
                                                      pkt.injected, a->head_arrival, now});
    } else {
      stats_->record_packet(pkt.flow, a->flits, pkt.created, pkt.injected, a->head_arrival, now);
    }
    *a = assembling_.back();
    assembling_.pop_back();
    freed = flit.vc;  // the receive VC is free again
  }
  // Consumed: drop the flit's pool reference (after the last payload read).
  if (sink_ != nullptr) {
    sink_->pool_releases.push_back(flit.slot);
  } else {
    pool_->release(flit.slot);
  }
  return freed;
}

void Nic::credit_arrived(VcId vc) {
  SMARTNOC_CHECK(free_vcs_.size() < vcs_per_port_, "NIC credit overflow");
  free_vcs_.push_back(vc);
}

int Nic::drop_flow_queue(FlowId flow, std::int32_t local,
                         const std::function<void(PacketSlot)>& on_dropped) {
  LocalFlow& lf = local_flow(flow, local, "queue drop for a flow not sourced here");
  if (lf.head == kInvalidSlot) return 0;
  int dropped = 0;
  for (PacketSlot s = lf.head; s != kInvalidSlot;) {
    const PacketSlot next = pool_->at(s).next;  // on_dropped may recycle s
    on_dropped(s);
    s = next;
    dropped += 1;
  }
  lf.head = lf.tail = kInvalidSlot;
  queued_total_ -= dropped;
  const auto pos = static_cast<std::size_t>(local);
  nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), pos));
  return dropped;
}

void Nic::rewrite_queued_routes(FlowId flow, std::int32_t local, const SourceRoute& route) {
  const LocalFlow& lf = local_flow(flow, local, "route rewrite for a flow not sourced here");
  for (PacketSlot s = lf.head; s != kInvalidSlot; s = pool_->at(s).next) {
    pool_->at(s).route = route;
  }
}

void Nic::purge_flows(const std::vector<std::uint8_t>& affected,
                      const std::function<void(PacketSlot)>& on_cancelled) {
  auto hit = [&](FlowId fl) {
    return fl >= 0 && static_cast<std::size_t>(fl) < affected.size() &&
           affected[static_cast<std::size_t>(fl)] != 0;
  };
  // Cancel the active transmission first: its transmit reference keeps the
  // slot alive and transfers to the caller. The already-sent flits of this
  // packet are purged router-side; the endpoint VC frees in the global
  // credit recompute.
  if (active_.has_value() && hit(pool_->at(active_->slot).flow)) {
    on_cancelled(active_->slot);
    active_.reset();
  }
  // Erase affected reassemblies: the packet's remaining flits upstream are
  // being purged, so the assembly can never complete. Assembly flits hold
  // no pool references (released on arrival) - nothing to release here.
  for (std::size_t i = 0; i < assembling_.size();) {
    if (hit(pool_->at(assembling_[i].slot).flow)) {
      assembling_[i] = assembling_.back();
      assembling_.pop_back();
    } else {
      ++i;
    }
  }
}

void Nic::reset_source_credits(int vcs, const std::array<bool, 16>& busy) {
  free_vcs_ = VcQueue{};
  for (VcId v = 0; v < vcs; ++v) {
    if (!busy[static_cast<std::size_t>(v)]) free_vcs_.push_back(v);
  }
}

void Nic::mark_busy_receive_vcs(std::array<bool, 16>& busy) const {
  for (const Assembly& a : assembling_) {
    if (a.vc != kInvalidVc) busy[static_cast<std::size_t>(a.vc)] = true;
  }
}

int Nic::retry_waiting(Cycle now) const {
  int waiting = 0;
  for (const LocalFlow& lf : local_flows_) {
    for (PacketSlot s = lf.head; s != kInvalidSlot;) {
      const PacketPayload& pkt = pool_->at(s);
      if (pkt.not_before > now) waiting += 1;
      s = pkt.next;
    }
  }
  return waiting;
}

}  // namespace smartnoc::noc
