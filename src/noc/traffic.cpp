#include "noc/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace smartnoc::noc {

TrafficEngine::TrafficEngine(const NocConfig& cfg, const FlowSet& flows, std::uint64_t seed) {
  gens_.reserve(static_cast<std::size_t>(flows.size()));
  // Per-NIC serialization limit: a NIC injects one flit per cycle, so the
  // offered load of its flows must not exceed 1/flits_per_packet packets
  // per cycle. Exceeding it saturates the source queue; warn loudly.
  std::vector<double> per_src(static_cast<std::size_t>(cfg.width * cfg.height), 0.0);
  for (const Flow& f : flows) {
    Gen g{f.id, f.packets_per_cycle(cfg), make_stream(seed, static_cast<std::uint64_t>(f.id))};
    if (g.p > 1.0) {
      throw ConfigError("flow " + f.path.str() + " requires more than one packet per cycle");
    }
    per_src[static_cast<std::size_t>(f.src)] += g.p;
    gens_.push_back(std::move(g));
  }
  const double limit = 1.0 / cfg.flits_per_packet();
  for (std::size_t n = 0; n < per_src.size(); ++n) {
    if (per_src[n] > limit) {
      SMARTNOC_LOG_WARN("NIC %zu offered %.4f pkt/cycle > serialization limit %.4f; "
                        "its source queue will grow",
                        n, per_src[n], limit);
    }
  }
}

Cycle TrafficEngine::draw_gap(std::uint32_t gi) {
  Gen& g = gens_[gi];
  if (g.p >= 1.0) return 1;
  draws_ += 1;
  const double u = g.rng.uniform();
  // Inverse CDF of the geometric distribution: the first success of a
  // Bernoulli(p) sequence lands on draw 1 + floor(log(1-u)/log(1-p)).
  const double gap = std::floor(std::log1p(-u) / slots_[gi].log_q);
  // Clamp pathological tails (u ~ 1 at tiny p) to a finite horizon well
  // beyond any simulation window instead of overflowing Cycle.
  constexpr double kMaxGap = 1e15;
  return 1 + static_cast<Cycle>(std::min(gap, kMaxGap));
}

void TrafficEngine::schedule(std::uint32_t gi, Cycle from) {
  if (gens_[gi].p <= 0.0) return;  // rate-0 flow: never fires, never enters the wheel
  Slot& slot = slots_[gi];
  slot.due = from + draw_gap(gi) - 1;
  std::uint32_t& head = heads_[static_cast<std::size_t>(slot.due) & wheel_mask_];
  slot.next = head;
  head = gi;
}

template <typename Take>
void TrafficEngine::unlink_bucket(std::size_t b, Take&& take) {
  std::uint32_t* link = &heads_[b];
  while (*link != kNone) {
    Slot& slot = slots_[*link];
    if (take(slot.due)) {
      picked_.push_back(*link);
      *link = slot.next;
    } else {
      link = &slot.next;
    }
  }
}

void TrafficEngine::generate(Network& net) {
  if (!enabled_) return;
  const Cycle now = net.now();
  if (heads_.empty()) {
    // First call: two buckets per flow, and at least 4096 (16 KB), so a
    // bucket holds the flows due now plus, on average, at most one flow in
    // two due a whole span or more later, which the visit walks past. Then
    // every flow draws its gap from here; due >= now keeps the "can fire
    // on the very first cycle" property of the per-cycle draw.
    constexpr std::size_t kMinSpan = 4096;
    constexpr std::size_t kMaxSpan = std::size_t{1} << 16;
    const std::size_t span = std::clamp(std::bit_ceil(gens_.size() * 2), kMinSpan, kMaxSpan);
    heads_.assign(span, kNone);
    wheel_mask_ = span - 1;
    slots_.resize(gens_.size());
    for (std::uint32_t i = 0; i < gens_.size(); ++i) {
      slots_[i].log_q = std::log1p(-gens_[i].p);
      schedule(i, now);
    }
    next_cycle_ = now;
  } else if (now > next_cycle_) {
    // Cycles [next_cycle_, now) passed while generation was disabled. The
    // per-cycle process would simply have drawn nothing in between; mirror
    // that by re-drawing the gap of every flow whose slot passed forward
    // from the present (per-flow streams: the order of these draws is
    // immaterial).
    const Cycle passed = std::min<Cycle>(now - next_cycle_, heads_.size());
    for (Cycle c = next_cycle_; c < next_cycle_ + passed; ++c) {
      unlink_bucket(static_cast<std::size_t>(c) & wheel_mask_,
                    [now](Cycle due) { return due < now; });
    }
    for (const std::uint32_t gi : picked_) schedule(gi, now);
    picked_.clear();
  }
  next_cycle_ = now + 1;
  unlink_bucket(static_cast<std::size_t>(now) & wheel_mask_,
                [now](Cycle due) { return due == now; });
  if (picked_.empty()) return;
  // A bucket lists its flows in filing order; same-cycle packets go out in
  // flow-registration order, as a per-cycle loop over the flows offers them.
  if (picked_.size() > 1) std::sort(picked_.begin(), picked_.end());
  for (const std::uint32_t gi : picked_) {
    net.offer_packet(gens_[gi].id, now);
    generated_ += 1;
    schedule(gi, now + 1);
  }
  picked_.clear();
}

const char* synthetic_name(SyntheticPattern p) {
  switch (p) {
    case SyntheticPattern::UniformRandom: return "uniform-random";
    case SyntheticPattern::Transpose: return "transpose";
    case SyntheticPattern::BitComplement: return "bit-complement";
    case SyntheticPattern::Neighbor: return "neighbor";
    case SyntheticPattern::Hotspot: return "hotspot";
  }
  return "?";
}

double mbps_for_packets_per_cycle(const NocConfig& cfg, double packets_per_cycle) {
  const double bytes_per_packet = cfg.packet_bits / 8.0;
  const double packets_per_s = packets_per_cycle * cfg.freq_ghz * 1e9;
  return packets_per_s * bytes_per_packet / 1e6 / cfg.bandwidth_scale;
}

std::vector<TraceEntry> record_bernoulli_trace(const NocConfig& cfg, const FlowSet& flows,
                                               std::uint64_t seed, Cycle cycles) {
  // Runs a TrafficEngine against a trace-collecting network stub - one RNG
  // stream per flow, same draw order (FlowSet order within a cycle).
  struct TraceNet final : Network {
    std::vector<TraceEntry>* out = nullptr;
    Cycle now_ = 0;
    void tick() override { now_ += 1; }
    Cycle now() const override { return now_; }
    void offer_packet(FlowId flow, Cycle created) override {
      out->push_back(TraceEntry{created, flow});
    }
    bool drained() const override { return true; }
    NetworkStats& stats() override { throw SimError("trace stub has no stats"); }
    const NocConfig& config() const override { throw SimError("trace stub has no config"); }
    const FlowSet& flows() const override { throw SimError("trace stub has no flows"); }
  };
  std::vector<TraceEntry> trace;
  TraceNet net;
  net.out = &trace;
  TrafficEngine engine(cfg, flows, seed);
  for (Cycle t = 1; t <= cycles; ++t) {
    net.tick();
    engine.generate(net);
  }
  return trace;
}

TraceReplayer::TraceReplayer(std::vector<TraceEntry> trace) : trace_(std::move(trace)) {
  for (std::size_t i = 1; i < trace_.size(); ++i) {
    if (trace_[i - 1].cycle > trace_[i].cycle) {
      throw ConfigError("trace entries must be sorted by cycle");
    }
  }
}

void TraceReplayer::generate(Network& net) {
  if (!enabled_) return;
  while (next_ < trace_.size() && trace_[next_].cycle <= net.now()) {
    net.offer_packet(trace_[next_].flow, net.now());
    ++next_;
    ++generated_;
  }
}

FlowSet make_synthetic_flows(const NocConfig& cfg, SyntheticPattern pattern,
                             double flits_per_node_cycle, TurnModel model) {
  const MeshDims dims = cfg.dims();
  const double pkts_per_node_cycle = flits_per_node_cycle / cfg.flits_per_packet();

  // Destination list per source.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const int n = dims.nodes();
  switch (pattern) {
    case SyntheticPattern::UniformRandom:
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
          if (s != d) pairs.emplace_back(s, d);
        }
      }
      break;
    case SyntheticPattern::Transpose:
      for (NodeId s = 0; s < n; ++s) {
        const Coord c = dims.coord(s);
        if (c.x < dims.height() && c.y < dims.width()) {
          const NodeId d = dims.id({c.y, c.x});
          if (d != s) pairs.emplace_back(s, d);
        }
      }
      break;
    case SyntheticPattern::BitComplement:
      for (NodeId s = 0; s < n; ++s) {
        const NodeId d = n - 1 - s;
        if (d != s) pairs.emplace_back(s, d);
      }
      break;
    case SyntheticPattern::Neighbor:
      for (NodeId s = 0; s < n; ++s) {
        if (dims.has_neighbor(s, Dir::East)) {
          pairs.emplace_back(s, dims.neighbor(s, Dir::East));
        }
      }
      break;
    case SyntheticPattern::Hotspot: {
      const NodeId hot = dims.id({dims.width() / 2, dims.height() / 2});
      for (NodeId s = 0; s < n; ++s) {
        if (s != hot) pairs.emplace_back(s, hot);
      }
      break;
    }
  }
  SMARTNOC_CHECK(!pairs.empty(), "synthetic pattern produced no flows");

  // Split each source's budget across its flows.
  std::vector<int> flows_per_src(static_cast<std::size_t>(n), 0);
  for (const auto& [s, d] : pairs) flows_per_src[static_cast<std::size_t>(s)] += 1;

  FlowSet out;
  for (const auto& [s, d] : pairs) {
    const double share = pkts_per_node_cycle / flows_per_src[static_cast<std::size_t>(s)];
    // Deterministic route choice: first minimal path under the model.
    RoutePath path = minimal_paths(dims, s, d, model).front();
    out.add(s, d, mbps_for_packets_per_cycle(cfg, share), std::move(path));
  }
  return out;
}

}  // namespace smartnoc::noc
