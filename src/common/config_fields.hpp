// The NocConfig field table, and the value codecs every front-end shares.
//
// for_each_config_field(f, cfgs...) calls f(meta, cfgs.member...) once per
// NocConfig field, in struct order. The scenario text/JSON forms
// (sim/scenario), the result-cache point key (serve/point_key) and trace
// diffs (telemetry/trace_file) all walk it, so adding a knob is a struct
// member, a validate() line and one row here. The sizeof tripwires in
// serve/point_key.cpp fire until the row exists.
//
// Codecs: integers in decimal, doubles as the shortest round-trip decimal
// (common/float_io.hpp), booleans as true/false, and the design, routing
// and "WxH" mesh tokens.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/config.hpp"
#include "common/float_io.hpp"
#include "common/geometry.hpp"
#include "common/parse.hpp"

namespace smartnoc {

/// The static description of one field: one row of a field table.
struct FieldMeta {
  std::string_view member = {};  ///< member path, as trace diffs print it; "" = a view row
  std::string_view key = {};     ///< scenario text/JSON key; "" = not serialized
  bool in_point_key = true;      ///< part of a sweep point's result-cache identity
  bool omit_default = false;     ///< serialized only when it differs from its default
};

/// The scenario's "WxH" token spans two members. Its row is a view: no
/// member name and not in the point key, because width and height keep
/// their own keyless rows for the point key and trace diffs.
template <class Int>
struct MeshRef {
  Int& width;
  Int& height;
  bool operator==(const MeshRef& o) const { return width == o.width && height == o.height; }
};

template <class F, class... Cfg>
void for_each_config_field(F&& f, Cfg&... c) {
  using R = FieldMeta;
  f(R{.key = "mesh", .in_point_key = false}, MeshRef{c.width, c.height}...);
  f(R{.member = "config.width"}, c.width...);
  f(R{.member = "config.height"}, c.height...);
  f(R{.member = "config.flit_bits", .key = "flit_bits"}, c.flit_bits...);
  f(R{.member = "config.packet_bits", .key = "packet_bits"}, c.packet_bits...);
  f(R{.member = "config.vcs_per_port", .key = "vcs"}, c.vcs_per_port...);
  f(R{.member = "config.vc_depth_flits", .key = "vc_depth"}, c.vc_depth_flits...);
  f(R{.member = "config.header_bits"}, c.header_bits...);
  f(R{.member = "config.credit_bits"}, c.credit_bits...);
  f(R{.member = "config.freq_ghz", .key = "freq_ghz"}, c.freq_ghz...);
  f(R{.member = "config.hop_mm", .key = "hop_mm"}, c.hop_mm...);
  f(R{.member = "config.link_swing"}, c.link_swing...);
  f(R{.member = "config.hpc_max_override", .key = "hpc"}, c.hpc_max_override...);
  f(R{.member = "config.router_stages"}, c.router_stages...);
  f(R{.member = "config.clock_gate_unused_ports"}, c.clock_gate_unused_ports...);
  f(R{.member = "config.seed", .key = "seed"}, c.seed...);
  f(R{.member = "config.warmup_cycles", .key = "warmup"}, c.warmup_cycles...);
  f(R{.member = "config.measure_cycles", .key = "measure"}, c.measure_cycles...);
  f(R{.member = "config.drain_timeout", .key = "drain_timeout"}, c.drain_timeout...);
  f(R{.member = "config.routing", .key = "routing"}, c.routing...);
  f(R{.member = "config.bandwidth_scale", .key = "bandwidth_scale"}, c.bandwidth_scale...);
  auto optional = [](std::string_view member, std::string_view key) {
    return R{.member = member, .key = key, .omit_default = true};
  };
  // Wall-clock only: results are bit-identical at any shard count (pinned
  // by the GoldenShards matrix), so cached results stay valid across it.
  f(R{.member = "config.shard_threads", .key = "shard_threads", .in_point_key = false,
      .omit_default = true},
    c.shard_threads...);
  f(optional("config.watchdog_window", "watchdog"), c.watchdog_window...);
  f(optional("config.retry_limit", "retry_limit"), c.retry_limit...);
  f(optional("config.retry_backoff_cycles", "retry_backoff"), c.retry_backoff_cycles...);
}

// --- Value codecs ------------------------------------------------------------

inline Design parse_design(const std::string& token) {
  const std::string t = lower_token(token);
  if (t == "mesh" || t == "baseline") return Design::Mesh;
  if (t == "smart") return Design::Smart;
  if (t == "dedicated") return Design::Dedicated;
  throw ConfigError("unknown design '" + token + "' (mesh, smart, dedicated)");
}

inline RoutingPolicy parse_routing(const std::string& token) {
  const std::string t = lower_token(token);
  if (t == "xy") return RoutingPolicy::XY;
  if (t == "west-first" || t == "westfirst") return RoutingPolicy::WestFirst;
  throw ConfigError("unknown routing policy '" + token + "' (xy, west-first)");
}

inline MeshDims parse_mesh(const std::string& token) {
  const auto x = token.find_first_of("xX");
  if (x == std::string::npos || x == 0 || x + 1 >= token.size()) {
    throw ConfigError("malformed mesh '" + token + "' (expected WxH, e.g. 4x4)");
  }
  return MeshDims(parse_int_token(token.substr(0, x), "mesh width"),
                  parse_int_token(token.substr(x + 1), "mesh height"));
}

/// A row value as its scenario token. Enums without a named token
/// (link_swing, which has no key) fall back to their number.
template <class T>
std::string format_token(const T& v) {
  if constexpr (std::is_same_v<T, bool>) return v ? "true" : "false";
  else if constexpr (std::is_same_v<T, double>) return format_double_rt(v);
  else if constexpr (std::is_integral_v<T>) return std::to_string(v);
  else if constexpr (std::is_same_v<T, std::string>) return v;
  else if constexpr (std::is_same_v<T, Design>) return lower_token(design_name(v));
  else if constexpr (std::is_same_v<T, RoutingPolicy>) {
    return v == RoutingPolicy::XY ? "xy" : "west-first";
  }
  else if constexpr (std::is_enum_v<T>) return std::to_string(static_cast<int>(v));
  else return std::to_string(v.width) + "x" + std::to_string(v.height);  // MeshRef
}

/// Inverse of format_token; `what` names the field in error messages.
template <class T>
void parse_token(const std::string& s, T& v, const std::string& what) {
  if constexpr (std::is_same_v<T, bool>) v = parse_bool_token(s, what);
  else if constexpr (std::is_same_v<T, double>) v = parse_double_token(s, what);
  else if constexpr (std::is_same_v<T, int>) v = parse_int_token(s, what);
  else if constexpr (std::is_same_v<T, std::uint64_t>) v = parse_u64_token(s, what);
  else if constexpr (std::is_same_v<T, std::string>) v = s;
  else if constexpr (std::is_same_v<T, Design>) v = parse_design(s);
  else if constexpr (std::is_same_v<T, RoutingPolicy>) v = parse_routing(s);
  else if constexpr (std::is_enum_v<T>) v = static_cast<T>(parse_int_token(s, what));
  else {  // MeshRef
    const MeshDims d = parse_mesh(s);
    v.width = d.width();
    v.height = d.height();
  }
}

}  // namespace smartnoc
