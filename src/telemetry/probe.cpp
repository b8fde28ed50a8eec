#include "telemetry/probe.hpp"

#include "common/error.hpp"

namespace smartnoc::telemetry {

namespace {

/// A directed link's column in the per-epoch link series.
std::size_t link_index(const noc::SegLink& l) {
  return static_cast<std::size_t>(l.first) * kNumMeshDirs +
         static_cast<std::size_t>(dir_index(l.second));
}

}  // namespace

Probe::Probe(const MeshDims& dims, int flits_per_packet, Config cfg)
    : dims_(dims),
      flits_per_packet_(flits_per_packet),
      cfg_(cfg),
      nodes_(static_cast<std::size_t>(dims.nodes())),
      links_(static_cast<std::size_t>(dims.nodes()) * kNumMeshDirs) {
  SMARTNOC_CHECK(flits_per_packet_ > 0, "probe needs the packet size in flits");
  SMARTNOC_CHECK(!cfg_.power_series || cfg_.epoch_cycles > 0,
                 "the power series needs an epoch length (epoch_cycles > 0)");
  if (cfg_.chrome_event_capacity > 0) events_.reserve(cfg_.chrome_event_capacity);
  // Materialize epoch 0 so the window cache is valid from the first event.
  if (cfg_.epoch_cycles > 0) rewindow(0);
}

void Probe::ensure_epoch(std::size_t epoch) {
  if (epoch < epochs_) return;
  const std::size_t need = epoch + 1;
  if (need > epochs_reserved_) {
    std::size_t cap = epochs_reserved_ != 0 ? epochs_reserved_ : 16;
    while (cap < need) cap *= 2;
    link_series_.resize(cap * links_);
    router_series_.resize(cap * nodes_);
    inject_series_.resize(cap * nodes_);
    eject_series_.resize(cap * nodes_);
    drop_series_.resize(cap);
    retransmit_series_.resize(cap);
    if (cfg_.power_series) activity_series_.resize(cap);
    epochs_reserved_ = cap;
  }
  epochs_ = need;
}

void Probe::rewindow(Cycle g) {
  win_epoch_ = static_cast<std::size_t>(g / cfg_.epoch_cycles);
  win_start_ = static_cast<Cycle>(win_epoch_) * cfg_.epoch_cycles;
  ensure_epoch(win_epoch_);  // may reallocate: refresh the row pointers after
  win_link_p_ = link_series_.data() + win_epoch_ * links_;
  win_node_p_[0] = router_series_.data() + win_epoch_ * nodes_;
  win_node_p_[1] = eject_series_.data() + win_epoch_ * nodes_;
  win_inject_p_ = inject_series_.data() + win_epoch_ * nodes_;
}

void Probe::flit_on_link(NodeId from, Dir out, const noc::FlitRef& flit,
                         const noc::PacketPool& pool, Cycle cycle) {
  if (cfg_.epoch_cycles != 0) {
    epoch_of(cycle);  // refreshes win_link_p_
    win_link_p_[static_cast<std::size_t>(from) * kNumMeshDirs +
                static_cast<std::size_t>(dir_index(out))] += 1;
  } else {
    link_total_ += 1;
  }
  if (cfg_.chrome_event_capacity > 0) {
    if (events_.size() < cfg_.chrome_event_capacity) {
      events_.push_back(LinkEvent{era_base_ + cycle, from, out, pool.at(flit.slot).id, flit.seq});
    } else {
      events_truncated_ = true;
    }
  }
}

void Probe::flit_latched(bool is_nic, NodeId node, const noc::FlitRef& flit,
                         const noc::PacketPool& pool, Cycle cycle) {
  (void)flit;
  (void)pool;
  if (cfg_.epoch_cycles != 0) {
    epoch_of(cycle);  // refreshes win_node_p_
    win_node_p_[is_nic ? 1 : 0][static_cast<std::size_t>(node)] += 1;
  } else if (is_nic) {
    eject_total_ += 1;
  } else {
    router_total_ += 1;
  }
}

void Probe::segment_traversed(const noc::Segment& seg, std::span<const noc::SegLink> links,
                              const noc::FlitRef& flit, const noc::PacketPool& pool, Cycle now,
                              Cycle arrival) {
  // The one call per delivery: epoch series only (whole-run totals are
  // summed from the series at export time, keeping this path lean); the
  // scalar counters are maintained only when the series are off.
  (void)arrival;
  if (cfg_.epoch_cycles != 0) {
    epoch_of(now);  // one lookup covers the links *and* the latch
    // The first kLinkPad links are counted without a length branch (the
    // table's padding makes them readable; entries past the end add 0): a
    // loop whose trip count changes from one delivery to the next - 0, 1
    // or 2 links on short SMART segments - mispredicts its exit, which
    // costs more than the counting. Longer segments loop over the rest.
    const noc::SegLink* l = links.data();
    for (std::size_t k = 0; k < noc::SegmentTable::kLinkPad; ++k) {
      win_link_p_[link_index(l[k])] += k < links.size() ? 1 : 0;
    }
    for (std::size_t k = noc::SegmentTable::kLinkPad; k < links.size(); ++k) {
      win_link_p_[link_index(l[k])] += 1;
    }
    win_node_p_[seg.ep.is_nic ? 1 : 0][static_cast<std::size_t>(seg.ep.node)] += 1;
  } else {
    link_total_ += links.size();
    if (seg.ep.is_nic) {
      eject_total_ += 1;
    } else {
      router_total_ += 1;
    }
  }
  if (cfg_.chrome_event_capacity > 0) {
    // The one payload read of the probe: the packet id for Chrome tracks.
    for (const auto& [from, out] : links) {
      if (events_.size() < cfg_.chrome_event_capacity) {
        events_.push_back(LinkEvent{era_base_ + now, from, out, pool.at(flit.slot).id, flit.seq});
      } else {
        events_truncated_ = true;
      }
    }
  }
}

void Probe::packet_offered(FlowId flow, NodeId src, Cycle created) {
  if (cfg_.record_injections) injection_log_.push_back(noc::TraceEntry{created, flow});
  if (injection_sink_) injection_sink_(created, flow);
  if (cfg_.epoch_cycles != 0) {
    epoch_of(created);
    win_inject_p_[static_cast<std::size_t>(src)] += 1;
  } else {
    inject_total_ += 1;
  }
}

void Probe::packet_dropped(FlowId flow, NodeId src, Cycle cycle) {
  (void)flow;
  (void)src;
  if (cfg_.epoch_cycles != 0) {
    epoch_of(cycle);
    drop_series_[win_epoch_] += 1;
  } else {
    drop_total_ += 1;
  }
}

void Probe::packet_retransmitted(FlowId flow, NodeId src, Cycle cycle) {
  (void)flow;
  (void)src;
  if (cfg_.epoch_cycles != 0) {
    epoch_of(cycle);
    retransmit_series_[win_epoch_] += 1;
  } else {
    retransmit_total_ += 1;
  }
}

void Probe::activity_delta(const noc::ActivityCounters& delta, Cycle cycle) {
  // Reached only when wants_activity_deltas() opted in (cfg_.power_series).
  activity_total_.add(delta);
  epoch_of(cycle);  // materializes the row (and may grow activity_series_)
  activity_series_[win_epoch_].add(delta);
}

std::vector<power::PowerBreakdown> Probe::power_series(const NocConfig& cfg,
                                                       const power::EnergyParams& p) const {
  std::vector<power::PowerBreakdown> out;
  out.reserve(epochs_);
  for (std::size_t e = 0; e < epochs_; ++e) {
    out.push_back(power::compute_power(cfg, activity_series_[e], cfg_.epoch_cycles, p));
  }
  return out;
}

void Probe::end_era(Cycle era_cycles) { era_base_ += era_cycles; }

void Probe::mark(const std::string& label, Cycle now, bool new_era) {
  // Materialize the mark's epoch row: a phase that then produces no events
  // (an idle tail, a zero-length marker phase) must still appear in the
  // time series, not just in the Chrome export.
  if (cfg_.epoch_cycles != 0) epoch_of(now);
  marks_.push_back(Mark{era_base_ + now, new_era, label});
}

std::vector<std::int64_t> Probe::occupancy_series() const {
  std::vector<std::int64_t> out(epochs_, 0);
  std::int64_t running = 0;
  for (std::size_t e = 0; e < epochs_; ++e) {
    std::uint64_t injected = 0, ejected = 0;
    for (std::size_t n = 0; n < nodes_; ++n) {
      injected += inject_series_[e * nodes_ + n];
      ejected += eject_series_[e * nodes_ + n];
    }
    running += static_cast<std::int64_t>(injected) * flits_per_packet_ -
               static_cast<std::int64_t>(ejected);
    out[e] = running;
  }
  return out;
}

std::vector<std::uint64_t> Probe::link_totals() const {
  std::vector<std::uint64_t> out(links_, 0);
  for (std::size_t e = 0; e < epochs_; ++e) {
    for (std::size_t l = 0; l < links_; ++l) out[l] += link_series_[e * links_ + l];
  }
  return out;
}

namespace {
std::uint64_t series_sum(const std::vector<std::uint64_t>& series) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : series) sum += v;
  return sum;
}
}  // namespace

std::uint64_t Probe::link_flits_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(link_series_) : link_total_;
}

std::uint64_t Probe::router_latches_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(router_series_) : router_total_;
}

std::uint64_t Probe::packets_offered_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(inject_series_) : inject_total_;
}

std::uint64_t Probe::flits_ejected_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(eject_series_) : eject_total_;
}

std::uint64_t Probe::packets_dropped_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(drop_series_) : drop_total_;
}

std::uint64_t Probe::packets_retransmitted_total() const {
  return cfg_.epoch_cycles != 0 ? series_sum(retransmit_series_) : retransmit_total_;
}

}  // namespace smartnoc::telemetry
