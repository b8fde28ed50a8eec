// Telemetry probe: epoch-sampled time series of network activity.
//
// The paper's whole evaluation is built on *observing* the fabric - VCD
// activity feeds the PrimePower flow, and the Fig. 1 app-switching story is
// judged by when traffic moves - but aggregate end-of-run counters cannot
// show *when* a link was busy. A Probe attaches to a MeshNetwork as its
// TraceObserver and folds every event into flat per-entity counters bucketed
// by epoch (a fixed cycle window):
//
//   * per-directed-link flit counts    (epochs x nodes*4, row-major)
//   * per-router latch counts          (epochs x nodes)
//   * per-NIC injected packets / ejected flits (epochs x nodes)
//   * aggregate in-flight flit occupancy, derivable per epoch
//
// The hot path is an indexed add into those arrays - no allocation per
// event; storage grows by whole epochs (amortized, doubling) only when the
// simulated time advances past the reserved horizon.
//
// The probe lives across Session eras (reconfigurations): each era's
// network restarts its cycle counter at 0, so the Session tells the probe
// where eras begin/end and the probe keeps a global-cycle offset, plus a
// list of named marks ("phase X started at global cycle c") that exporters
// draw as era boundaries.
//
// Optionally the probe also keeps raw logs: the injection event list that
// TraceWriter serializes for record/replay, and a bounded capture of
// individual link events for the Chrome-tracing exporter (where a SMART
// multi-hop bypass renders as several same-tick link events - the paper's
// single-cycle multi-hop signature).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"

namespace smartnoc::telemetry {

/// One raw link traversal, kept only when chrome_event_capacity > 0.
struct LinkEvent {
  Cycle cycle = 0;  ///< global cycle (era offset applied)
  NodeId from = kInvalidNode;
  Dir out = Dir::Core;
  std::uint32_t packet_id = 0;
  std::uint8_t seq = 0;  ///< flit index within the packet
};

/// A named point on the global timeline (phase/era boundaries).
struct Mark {
  Cycle cycle = 0;  ///< global cycle the mark was placed at
  bool new_era = false;  ///< this boundary rebuilt the network
  std::string label;
};

class Probe final : public noc::TraceObserver {
 public:
  struct Config {
    /// Sample window in cycles; 0 disables the time series (the probe then
    /// only keeps the raw logs below).
    Cycle epoch_cycles = 1024;
    /// Keep the (cycle, flow) injection log for TraceWriter.
    bool record_injections = false;
    /// Raw link events kept for the Chrome exporter; 0 = none. The capture
    /// stops (and events_truncated() reports it) once the cap is reached.
    std::size_t chrome_event_capacity = 0;
    /// Keep a per-epoch ActivityCounters series (the time-resolved power
    /// input). Opts the probe into the network's per-tick activity_delta
    /// stream; requires epoch_cycles > 0.
    bool power_series = false;
  };

  Probe(const MeshDims& dims, int flits_per_packet, Config cfg);

  // --- TraceObserver ----------------------------------------------------------
  void flit_on_link(NodeId from, Dir out, const noc::FlitRef& flit,
                    const noc::PacketPool& pool, Cycle cycle) override;
  void flit_latched(bool is_nic, NodeId node, const noc::FlitRef& flit,
                    const noc::PacketPool& pool, Cycle cycle) override;
  /// One virtual call per delivery: counts the whole segment with one
  /// epoch lookup. The end-of-segment latch is attributed to the epoch of
  /// the traversal cycle `now` (a latch arriving 1 cycle into the next
  /// epoch lands in the previous bucket - totals are unaffected, and the
  /// bucket skew is at most one cycle at epoch boundaries). Payload is
  /// resolved through `pool` only on the Chrome-event capture branch.
  void segment_traversed(const noc::Segment& seg, std::span<const noc::SegLink> links,
                         const noc::FlitRef& flit, const noc::PacketPool& pool, Cycle now,
                         Cycle arrival) override;
  void packet_offered(FlowId flow, NodeId src, Cycle created) override;
  void packet_dropped(FlowId flow, NodeId src, Cycle cycle) override;
  void packet_retransmitted(FlowId flow, NodeId src, Cycle cycle) override;
  /// Per-tick activity deltas (only emitted when Config::power_series).
  void activity_delta(const noc::ActivityCounters& delta, Cycle cycle) override;
  bool wants_activity_deltas() const override { return cfg_.power_series; }

  // --- Era / phase bookkeeping (driven by sim::Session) -----------------------
  /// The network of the current era is about to go away after running
  /// `era_cycles` cycles: later events are offset by that much global time.
  void end_era(Cycle era_cycles);
  /// Labels the current global time (+ `now` era-local cycles) as the start
  /// of a phase; `new_era` flags the boundaries that rebuilt the network.
  void mark(const std::string& label, Cycle now, bool new_era);
  /// Total global cycles covered so far, given the live era's clock.
  Cycle global_cycle(Cycle era_now) const { return era_base_ + era_now; }

  // --- Series access ----------------------------------------------------------
  const MeshDims& dims() const { return dims_; }
  Cycle epoch_cycles() const { return cfg_.epoch_cycles; }
  int flits_per_packet() const { return flits_per_packet_; }
  /// Directed-link slots per epoch row: nodes * 4 mesh directions, indexed
  /// from*4 + dir (edge slots exist but stay zero).
  std::size_t links() const { return links_; }
  std::size_t nodes() const { return nodes_; }
  /// Epoch rows materialized so far (highest event epoch + 1).
  std::size_t epochs() const { return epochs_; }

  /// epochs() x links() row-major flit counts per directed link.
  const std::vector<std::uint64_t>& link_series() const { return link_series_; }
  /// epochs() x nodes(): flits latched at each stop router.
  const std::vector<std::uint64_t>& router_latch_series() const { return router_series_; }
  /// epochs() x nodes(): packets offered at each source NIC.
  const std::vector<std::uint64_t>& inject_series() const { return inject_series_; }
  /// epochs() x nodes(): flits consumed by each destination NIC.
  const std::vector<std::uint64_t>& eject_series() const { return eject_series_; }
  /// Per-epoch degradation series (aggregate, not per node): packets
  /// permanently dropped / re-queued for retransmission. Time-resolves the
  /// NetworkStats fault counters - a link kill shows up as a drop/retry
  /// spike in exactly the epoch it fired, a recovery as its decay.
  const std::vector<std::uint64_t>& drop_series() const { return drop_series_; }
  const std::vector<std::uint64_t>& retransmit_series() const { return retransmit_series_; }

  /// In-flight flit occupancy at the end of each epoch: cumulative injected
  /// flits (packets * flits/packet) minus cumulative ejected flits.
  std::vector<std::int64_t> occupancy_series() const;

  // --- Activity / power series (Config::power_series) -------------------------
  /// Per-epoch activity aligned to the Fig. 10b power categories; only the
  /// first epochs() entries are meaningful (storage is reserved ahead like
  /// the other series).
  const std::vector<noc::ActivityCounters>& activity_series() const {
    return activity_series_;
  }
  bool power_series_enabled() const { return cfg_.power_series; }
  /// Whole-run activity: the sum of every per-tick delta (all eras, all
  /// phases - independent of any stats window reset).
  const noc::ActivityCounters& activity_total() const { return activity_total_; }
  /// Snapshot the cumulative activity; window_activity() then reports
  /// everything since. sim::Session calls this exactly when it resets the
  /// network's stats window, so window_activity() matches the window's
  /// ActivityCounters bit-for-bit (same integer deltas, same boundaries).
  void window_reset() { window_base_ = activity_total_; }
  noc::ActivityCounters window_activity() const {
    return noc::activity_diff(activity_total_, window_base_);
  }
  /// Folds the per-epoch activity through the energy model: one
  /// PowerBreakdown per materialized epoch, each averaged over a full
  /// epoch_cycles window (the final, possibly partial, epoch included -
  /// consistent with how the other series treat it).
  std::vector<power::PowerBreakdown> power_series(const NocConfig& cfg,
                                                  const power::EnergyParams& p) const;

  /// Whole-run totals (all epochs; independent of any stats window reset).
  /// Summed from the series at query time - the hot path maintains only
  /// the per-epoch arrays (scalar counters exist just for series-off
  /// probes, i.e. pure trace recorders).
  std::uint64_t link_flits_total() const;
  std::uint64_t router_latches_total() const;
  std::uint64_t packets_offered_total() const;
  std::uint64_t flits_ejected_total() const;
  std::uint64_t packets_dropped_total() const;
  std::uint64_t packets_retransmitted_total() const;
  /// Per-directed-link totals across all epochs (size links()).
  std::vector<std::uint64_t> link_totals() const;

  const std::vector<Mark>& marks() const { return marks_; }
  const std::vector<LinkEvent>& events() const { return events_; }
  bool events_truncated() const { return events_truncated_; }
  const std::vector<noc::TraceEntry>& injection_log() const { return injection_log_; }
  bool recording() const { return cfg_.record_injections; }

  /// Streaming injection sink: called as (era-local cycle, flow) on every
  /// packet_offered, independent of the buffered injection log. The
  /// Session points this at a StreamingTraceWriter so captures go straight
  /// to disk with bounded memory.
  using InjectionSink = std::function<void(Cycle, FlowId)>;
  void set_injection_sink(InjectionSink sink) { injection_sink_ = std::move(sink); }

 private:
  /// Grows every series to cover `epoch` (zero-filled, doubling growth).
  void ensure_epoch(std::size_t epoch);

  /// Re-aims the epoch window cache at the epoch containing global cycle
  /// `g` and grows the series if it is new (the slow path of epoch_of).
  void rewindow(Cycle g);

  /// Epoch lookup with a one-window cache: consecutive events almost always
  /// share an epoch, so the common case is two compares instead of a 64-bit
  /// division (the probe sits on the per-flit hot path). Updates the cached
  /// row pointers (win_link_p_ / win_node_p_ / win_inject_p_) as a side
  /// effect.
  std::size_t epoch_of(Cycle era_cycle) {
    const Cycle g = era_base_ + era_cycle;
    if (g < win_start_ || g - win_start_ >= cfg_.epoch_cycles) rewindow(g);
    return win_epoch_;
  }

  MeshDims dims_;
  int flits_per_packet_ = 0;
  Config cfg_;
  std::size_t nodes_ = 0;
  std::size_t links_ = 0;
  Cycle era_base_ = 0;  ///< global cycles accumulated by finished eras

  // epoch_of() window cache: the current epoch, its first global cycle and
  // raw base pointers to its rows (refreshed by rewindow(), which runs
  // after any series growth, so they never dangle).
  Cycle win_start_ = 0;
  std::size_t win_epoch_ = 0;
  std::uint64_t* win_link_p_ = nullptr;
  std::uint64_t* win_node_p_[2] = {nullptr, nullptr};  ///< [0] router, [1] NIC
  std::uint64_t* win_inject_p_ = nullptr;

  std::size_t epochs_ = 0;           ///< rows materialized
  std::size_t epochs_reserved_ = 0;  ///< rows allocated (doubling growth)
  std::vector<std::uint64_t> link_series_;
  std::vector<std::uint64_t> router_series_;
  std::vector<std::uint64_t> inject_series_;
  std::vector<std::uint64_t> eject_series_;
  std::vector<std::uint64_t> drop_series_;        ///< per epoch (aggregate)
  std::vector<std::uint64_t> retransmit_series_;  ///< per epoch (aggregate)
  std::vector<noc::ActivityCounters> activity_series_;  ///< power_series only
  noc::ActivityCounters activity_total_;
  noc::ActivityCounters window_base_;

  std::uint64_t link_total_ = 0;
  std::uint64_t router_total_ = 0;
  std::uint64_t inject_total_ = 0;
  std::uint64_t eject_total_ = 0;
  std::uint64_t drop_total_ = 0;
  std::uint64_t retransmit_total_ = 0;

  std::vector<Mark> marks_;
  std::vector<LinkEvent> events_;
  bool events_truncated_ = false;
  std::vector<noc::TraceEntry> injection_log_;
  InjectionSink injection_sink_;
};

}  // namespace smartnoc::telemetry
