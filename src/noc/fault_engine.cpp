#include "noc/fault_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace smartnoc::noc {

namespace {

char dir_letter(Dir d) {
  switch (d) {
    case Dir::East: return 'E';
    case Dir::South: return 'S';
    case Dir::West: return 'W';
    case Dir::North: return 'N';
    case Dir::Core: return 'C';
  }
  return '?';
}

Dir dir_from_letter(char c, const std::string& ctx) {
  switch (c) {
    case 'E': case 'e': return Dir::East;
    case 'S': case 's': return Dir::South;
    case 'W': case 'w': return Dir::West;
    case 'N': case 'n': return Dir::North;
    default: break;
  }
  throw ConfigError("bad link direction '" + std::string(1, c) + "' in '" + ctx +
                    "' (expected E, S, W or N)");
}

std::uint64_t parse_num(const std::string& s, const std::string& ctx) {
  if (s.empty()) throw ConfigError("missing number in fault token '" + ctx + "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw ConfigError("bad number '" + s + "' in fault token '" + ctx + "'");
  }
  return v;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::LinkKill: return "kill";
    case FaultKind::LinkGlitch: return "glitch";
    case FaultKind::RouterStall: return "stall";
  }
  return "?";
}

void FaultEventSpec::validate(const MeshDims& dims) const {
  if (!dims.contains(node)) {
    throw ConfigError("fault event " + str() + ": node " + std::to_string(node) +
                      " outside the " + std::to_string(dims.width()) + "x" +
                      std::to_string(dims.height()) + " mesh");
  }
  if (kind == FaultKind::RouterStall) {
    if (until <= cycle) {
      throw ConfigError("fault event " + str() + ": stall release (until=" +
                        std::to_string(until) + ") must come after cycle " +
                        std::to_string(cycle));
    }
    return;
  }
  if (!is_mesh_dir(dir) || !dims.has_neighbor(node, dir)) {
    throw ConfigError("fault event " + str() + ": node " + std::to_string(node) +
                      " has no mesh link to the " + dir_name(dir));
  }
  if (kind == FaultKind::LinkGlitch && until <= cycle) {
    throw ConfigError("fault event " + str() + ": repair cycle (" + std::to_string(until) +
                      ") must come after the glitch at cycle " + std::to_string(cycle));
  }
}

std::string FaultEventSpec::str() const {
  char buf[96];
  if (kind == FaultKind::RouterStall) {
    std::snprintf(buf, sizeof buf, "stall@%llu router=%d until=%llu",
                  static_cast<unsigned long long>(cycle), node,
                  static_cast<unsigned long long>(until));
  } else if (kind == FaultKind::LinkGlitch) {
    std::snprintf(buf, sizeof buf, "glitch@%llu link=%d:%c repair=%llu",
                  static_cast<unsigned long long>(cycle), node, dir_letter(dir),
                  static_cast<unsigned long long>(until));
  } else {
    std::snprintf(buf, sizeof buf, "kill@%llu link=%d:%c",
                  static_cast<unsigned long long>(cycle), node, dir_letter(dir));
  }
  return buf;
}

FaultSchedule::FaultSchedule(const std::vector<FaultEventSpec>& events) {
  actions_.reserve(events.size() * 2);
  for (const FaultEventSpec& e : events) {
    FaultAction a;
    a.cycle = e.cycle;
    a.node = e.node;
    a.dir = e.dir;
    switch (e.kind) {
      case FaultKind::LinkKill:
        a.kind = FaultAction::Kind::Kill;
        actions_.push_back(a);
        break;
      case FaultKind::LinkGlitch: {
        a.kind = FaultAction::Kind::Kill;
        actions_.push_back(a);
        FaultAction r = a;
        r.kind = FaultAction::Kind::Repair;
        r.cycle = e.until;
        actions_.push_back(r);
        break;
      }
      case FaultKind::RouterStall:
        a.kind = FaultAction::Kind::Stall;
        a.until = e.until;
        actions_.push_back(a);
        break;
    }
  }
  // Stable: actions sharing a cycle fire in declaration order, which is
  // part of the determinism contract (the golden matrix pins it).
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const FaultAction& x, const FaultAction& y) { return x.cycle < y.cycle; });
}

FaultSchedule FaultSchedule::random(const MeshDims& dims, Cycle mtbf, Cycle horizon,
                                    std::uint64_t seed, Cycle repair_after) {
  return FaultSchedule(random_events(dims, mtbf, horizon, seed, repair_after));
}

std::vector<FaultEventSpec> FaultSchedule::random_events(const MeshDims& dims, Cycle mtbf,
                                                         Cycle horizon, std::uint64_t seed,
                                                         Cycle repair_after) {
  if (mtbf == 0) throw ConfigError("FaultSchedule::random: mtbf must be positive");
  std::vector<FaultEventSpec> events;
  Xoshiro256 rng = make_stream(seed, (1ULL << 33) + 0xFA17);
  Cycle t = 0;
  while (true) {
    t += 1 + rng.below(2 * mtbf);  // uniform inter-arrival, mean ~ mtbf
    if (t >= horizon) break;
    // Draw a live East/North link (bounded retry keeps this deterministic
    // and terminating even on 1xN meshes with few candidates).
    FaultEventSpec e;
    bool found = false;
    for (int tries = 0; tries < 64 && !found; ++tries) {
      const NodeId n = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(dims.nodes())));
      const Dir d = rng.below(2) ? Dir::East : Dir::North;
      if (!dims.has_neighbor(n, d)) continue;
      e.node = n;
      e.dir = d;
      found = true;
    }
    if (!found) continue;
    e.cycle = t;
    if (repair_after > 0) {
      e.kind = FaultKind::LinkGlitch;
      e.until = t + repair_after;
    } else {
      e.kind = FaultKind::LinkKill;
    }
    events.push_back(e);
  }
  return events;
}

std::string StallReport::summary() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%llu packets in flight, %llu queued (%llu in retry backoff), %d occupied VCs, "
                "%zu busy routers, %d degraded flows, %zu failed links",
                static_cast<unsigned long long>(live_packets),
                static_cast<unsigned long long>(queued_packets),
                static_cast<unsigned long long>(retry_waiting), occupied_vcs,
                stuck_routers.size(), degraded_flows, live_faults.size());
  std::string out = buf;
  if (have_oldest) {
    std::snprintf(buf, sizeof buf, "; oldest packet id %u (flow %d, created cycle %llu)",
                  oldest_packet_id, oldest_packet_flow,
                  static_cast<unsigned long long>(oldest_packet_created));
    out += buf;
  }
  return out;
}

std::vector<FaultEventSpec> parse_fault_schedule_token(const std::string& token) {
  std::vector<FaultEventSpec> out;
  if (token.empty() || token == "none" || token == "-") return out;
  for (const std::string& ev : split_token(token, '+')) {
    const std::vector<std::string> at = split_token(ev, '@');
    if (at.size() < 2) {
      throw ConfigError("bad fault token '" + ev +
                        "' (expected kind@cycle:..., e.g. kill@2000:5:E)");
    }
    FaultEventSpec e;
    const std::string& kind = at[0];
    const std::vector<std::string> f = split_token(at[1], ':');
    if (kind == "kill" || kind == "glitch") {
      if (f.size() != 3) {
        throw ConfigError("bad fault token '" + ev + "' (expected " + kind +
                          "@cycle:node:dir)");
      }
      e.kind = kind == "kill" ? FaultKind::LinkKill : FaultKind::LinkGlitch;
      e.cycle = parse_num(f[0], ev);
      e.node = static_cast<NodeId>(parse_num(f[1], ev));
      if (f[2].size() != 1) throw ConfigError("bad link direction in '" + ev + "'");
      e.dir = dir_from_letter(f[2][0], ev);
      if (e.kind == FaultKind::LinkGlitch) {
        if (at.size() != 3) {
          throw ConfigError("bad fault token '" + ev + "' (glitch needs @repair_cycle)");
        }
        e.until = parse_num(at[2], ev);
      } else if (at.size() != 2) {
        throw ConfigError("bad fault token '" + ev + "' (kill takes no repair cycle)");
      }
    } else if (kind == "stall") {
      if (f.size() != 2 || at.size() != 3) {
        throw ConfigError("bad fault token '" + ev + "' (expected stall@cycle:node@until)");
      }
      e.kind = FaultKind::RouterStall;
      e.cycle = parse_num(f[0], ev);
      e.node = static_cast<NodeId>(parse_num(f[1], ev));
      e.until = parse_num(at[2], ev);
    } else {
      throw ConfigError("unknown fault kind '" + kind + "' in '" + ev +
                        "' (kill, glitch, stall)");
    }
    out.push_back(e);
  }
  return out;
}

std::string format_fault_schedule_token(const std::vector<FaultEventSpec>& events) {
  if (events.empty()) return "none";
  std::string out;
  char buf[64];
  for (const FaultEventSpec& e : events) {
    if (!out.empty()) out += '+';
    switch (e.kind) {
      case FaultKind::LinkKill:
        std::snprintf(buf, sizeof buf, "kill@%llu:%d:%c",
                      static_cast<unsigned long long>(e.cycle), e.node, dir_letter(e.dir));
        break;
      case FaultKind::LinkGlitch:
        std::snprintf(buf, sizeof buf, "glitch@%llu:%d:%c@%llu",
                      static_cast<unsigned long long>(e.cycle), e.node, dir_letter(e.dir),
                      static_cast<unsigned long long>(e.until));
        break;
      case FaultKind::RouterStall:
        std::snprintf(buf, sizeof buf, "stall@%llu:%d@%llu",
                      static_cast<unsigned long long>(e.cycle), e.node,
                      static_cast<unsigned long long>(e.until));
        break;
    }
    out += buf;
  }
  return out;
}

}  // namespace smartnoc::noc
