#include "noc/segment.hpp"

#include <optional>
#include <string>

#include "common/error.hpp"

namespace smartnoc::noc {

namespace {

/// The unique bypass exit for a credit/flit entering `at` through `entry`,
/// or nullopt when the port is not a bypass crosspoint. Throws if the preset
/// is ambiguous (two outputs selecting the same input link).
std::optional<Dir> bypass_exit(const std::array<XbarSel, kNumDirs>& xbar, Dir entry,
                               NodeId node) {
  std::optional<Dir> exit;
  for (Dir o : kAllDirs) {
    const XbarSel& sel = xbar[static_cast<std::size_t>(dir_index(o))];
    if (sel.kind == XbarSel::Kind::FromLink && sel.link == entry) {
      if (exit.has_value()) {
        throw ConfigError("router " + std::to_string(node) + ": two crossbar outputs preset to "
                          "the same input link " + dir_name(entry) +
                          " (a bypassed flit would be duplicated)");
      }
      exit = o;
    }
  }
  return exit;
}

}  // namespace

Segment SegmentTable::walk_forward(SegOrigin origin, NodeId first_router, Dir entry_port,
                                   const PresetTable& presets,
                                   std::vector<SegLink>& links) const {
  Segment seg;
  seg.origin = origin;
  seg.armed = true;
  NodeId cur = first_router;
  Dir in = entry_port;
  for (int steps = 0; steps <= dims_.nodes() + 1; ++steps) {
    const RouterPreset& p = presets.at(cur);
    if (p.input_mux[static_cast<std::size_t>(dir_index(in))] == InputMux::Buffer) {
      seg.ep = Endpoint{false, cur, in};
      if (seg.mm > hpc_max_) {
        throw ConfigError("segment from node " + std::to_string(origin.node) + " spans " +
                          std::to_string(seg.mm) + " mm > HPC_max " + std::to_string(hpc_max_));
      }
      return seg;
    }
    // Bypass: the crossbar must have exactly one crosspoint preset to this
    // input link, otherwise the presets are inconsistent.
    const auto exit = bypass_exit(p.xbar, in, cur);
    if (!exit.has_value()) {
      throw ConfigError("router " + std::to_string(cur) + ": input " + dir_name(in) +
                        " is preset to bypass but no crossbar output selects it");
    }
    seg.bypassed += 1;
    if (*exit == Dir::Core) {
      // Delivered straight into this tile's NIC.
      seg.ep = Endpoint{true, cur, Dir::Core};
      if (seg.mm > hpc_max_) {
        throw ConfigError("segment into NIC " + std::to_string(cur) + " spans " +
                          std::to_string(seg.mm) + " mm > HPC_max " + std::to_string(hpc_max_));
      }
      return seg;
    }
    if (!dims_.has_neighbor(cur, *exit)) {
      throw ConfigError("router " + std::to_string(cur) + ": bypass preset exits " +
                        dir_name(*exit) + " off the edge of the mesh");
    }
    seg.mm += 1;
    links.emplace_back(cur, *exit);
    cur = dims_.neighbor(cur, *exit);
    in = opposite(*exit);
  }
  throw ConfigError("bypass presets form a loop through router " + std::to_string(first_router));
}

SegmentTable::SegmentTable(const MeshDims& dims, const NocConfig& cfg,
                           const PresetTable& presets, int hpc_max)
    : dims_(dims), hpc_max_(hpc_max) {
  (void)cfg;
  SMARTNOC_CHECK(presets.size() == dims.nodes(), "preset table size mismatch");
  SMARTNOC_CHECK(hpc_max >= 1, "HPC_max must be at least one hop");

  const auto records = static_cast<std::size_t>(dims.nodes()) * kSlots;
  segs_.resize(records);
  credits_.resize(records);

  std::vector<SegLink> links;
  auto store = [&](std::size_t k, Segment seg) {
    SMARTNOC_CHECK(links.size() == static_cast<std::size_t>(seg.mm),
                   "a segment crosses one link per mm");
    seg.first_link = static_cast<std::uint32_t>(link_pool_.size());
    segs_[k] = seg;
    link_pool_.insert(link_pool_.end(), links.begin(), links.end());
    links.clear();
  };

  for (NodeId n = 0; n < dims.nodes(); ++n) {
    // Injection: flits from NIC n enter router n through the Core port.
    store(slot(n, kInjection),
          walk_forward(SegOrigin{true, n, Dir::Core}, n, Dir::Core, presets, links));

    // Output segments: one per usable output port of router n.
    for (Dir o : kAllDirs) {
      const XbarSel& sel = presets.at(n).xbar[static_cast<std::size_t>(dir_index(o))];
      if (sel.kind != XbarSel::Kind::FromRouter) {
        continue;  // Off, or a bypass crosspoint (covered inside other segments)
      }
      const SegOrigin origin{false, n, o};
      if (o == Dir::Core) {
        // Ejection stub into this tile's NIC: zero wire, no bypass.
        Segment seg;
        seg.origin = origin;
        seg.ep = Endpoint{true, n, Dir::Core};
        seg.armed = true;
        store(slot(n, dir_index(o)), seg);
        continue;
      }
      if (!dims.has_neighbor(n, o)) {
        throw ConfigError("router " + std::to_string(n) + ": output " + dir_name(o) +
                          " is preset FromRouter but has no link");
      }
      links.emplace_back(n, o);  // the first link, router n -> neighbour
      Segment seg = walk_forward(origin, dims.neighbor(n, o), opposite(o), presets, links);
      seg.mm += 1;
      if (seg.mm > hpc_max_) {
        throw ConfigError("segment from router " + std::to_string(n) + " output " + dir_name(o) +
                          " spans " + std::to_string(seg.mm) + " mm > HPC_max " +
                          std::to_string(hpc_max_));
      }
      store(slot(n, dir_index(o)), seg);
    }
  }

  link_pool_.resize(link_pool_.size() + kLinkPad, SegLink{0, Dir::East});

  build_credit_side(presets);

  // Cross-validate: every forward segment's endpoint must have a credit
  // path that leads exactly back to the segment's origin over the same
  // distance. This is the paper's "if a forward route is preset, the
  // reverse credit route is preset as well".
  for (const Segment& seg : segs_) {
    if (!seg.armed) continue;
    const CreditPath& ci =
        seg.ep.is_nic ? credit_nic(seg.ep.node) : credit_router_input(seg.ep.node, seg.ep.in);
    if (!ci.armed || !(ci.origin == seg.origin) || ci.mm != seg.mm) {
      throw ConfigError("credit crossbar presets do not mirror the forward presets at node " +
                        std::to_string(seg.ep.node));
    }
  }
}

void SegmentTable::build_credit_side(const PresetTable& presets) {
  // Trace the reverse credit path from every latch point back to its feeder.
  // A credit leaving a router through port d arrives at neighbour(n, d) on
  // port opposite(d) - which is that router's *forward output* toward us.
  auto trace = [&](NodeId start_router, Dir exit0, int mm0, int xbar0) -> CreditPath {
    CreditPath ci;
    ci.armed = true;
    ci.mm = mm0;
    ci.xbar_hops = xbar0;
    NodeId cur = start_router;
    Dir exit = exit0;
    for (int steps = 0; steps <= dims_.nodes() + 1; ++steps) {
      if (exit == Dir::Core) {
        // Forward origin was this tile's NIC.
        ci.origin = SegOrigin{true, cur, Dir::Core};
        return ci;
      }
      if (!dims_.has_neighbor(cur, exit)) {
        throw ConfigError("credit preset at router " + std::to_string(cur) +
                          " exits off-mesh via " + dir_name(exit));
      }
      const NodeId next = dims_.neighbor(cur, exit);
      const Dir arrive = opposite(exit);  // next's forward output port toward cur
      ci.mm += 1;
      const auto cont = bypass_exit(presets.at(next).credit_xbar, arrive, next);
      if (!cont.has_value()) {
        // Credit consumed: `next` is the forward origin router, output port
        // `arrive` is where its free-VC queue lives.
        ci.origin = SegOrigin{false, next, arrive};
        return ci;
      }
      ci.xbar_hops += 1;
      cur = next;
      exit = *cont;
    }
    throw ConfigError("credit presets form a loop near router " + std::to_string(start_router));
  };

  for (NodeId n = 0; n < dims_.nodes(); ++n) {
    // Router input ports that latch flits (Buffer mux): their credit exits
    // through the same port the flits arrived on.
    for (Dir in : kAllDirs) {
      const auto i = static_cast<std::size_t>(dir_index(in));
      if (presets.at(n).input_mux[i] != InputMux::Buffer) continue;
      CreditPath& path = credits_[slot(n, dir_index(in))];
      if (in == Dir::Core) {
        // Feeder is this tile's NIC injection stub.
        path = CreditPath{SegOrigin{true, n, Dir::Core}, 0, 0, true};
        continue;
      }
      if (!dims_.has_neighbor(n, in)) continue;  // edge port, never fed
      path = trace(n, in, 0, 0);
    }
    // NIC receive buffers: the credit first crosses this tile's router via
    // its credit crossbar (entry port Core).
    CreditPath& nic_path = credits_[slot(n, kInjection)];
    const auto exit0 = bypass_exit(presets.at(n).credit_xbar, Dir::Core, n);
    if (exit0.has_value()) {
      nic_path = trace(n, *exit0, 0, 1);
    } else {
      // No credit crosspoint for Core: the feeder is this router's own
      // ejection stub (flits stopped here and were ejected FromRouter).
      nic_path = CreditPath{SegOrigin{false, n, Dir::Core}, 0, 0, true};
    }
  }
}

std::vector<NodeId> SegmentTable::bypass_routers(const Segment& seg) const {
  // A router origin sends the first link itself; every later sender is
  // crossed in bypass (an injection segment bypasses from its first link).
  const std::span<const SegLink> ls = links(seg);
  std::vector<NodeId> out;
  for (std::size_t k = seg.origin.is_nic ? 0 : 1; k < ls.size(); ++k) out.push_back(ls[k].first);
  if (seg.ep.is_nic && seg.bypassed > 0) out.push_back(seg.ep.node);  // bypassed into the NIC
  return out;
}

}  // namespace smartnoc::noc
