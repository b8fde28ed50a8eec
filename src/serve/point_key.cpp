#include "serve/point_key.hpp"

#include "noc/traffic.hpp"

namespace smartnoc::serve {

// Layout tripwires: if one of these structs grows a field, the canonical
// encoding below silently stops covering part of the point's identity and
// the cache would alias distinct computations. The assert forces whoever
// adds the field to extend encode_* AND bump kPointKeyVersion. (Sizes are
// for the LP64 ABI every supported target uses; adjust alongside the
// encoding if that ever changes.)
static_assert(sizeof(NocConfig) == 144,
              "NocConfig changed: extend canonical_point_bytes and bump kPointKeyVersion");
static_assert(sizeof(sim::PhaseSpec) == 96,
              "PhaseSpec changed: extend canonical_point_bytes and bump kPointKeyVersion");
static_assert(sizeof(noc::FaultEventSpec) == 32,
              "FaultEventSpec changed: extend canonical_point_bytes and bump kPointKeyVersion");
static_assert(sizeof(sim::ScenarioSpec) == 432,
              "ScenarioSpec changed: extend canonical_point_bytes and bump kPointKeyVersion");

namespace {

void encode_config(CanonicalEncoder& e, const NocConfig& c) {
  e.i64(c.width);
  e.i64(c.height);
  e.i64(c.flit_bits);
  e.i64(c.packet_bits);
  e.i64(c.vcs_per_port);
  e.i64(c.vc_depth_flits);
  e.i64(c.header_bits);
  e.i64(c.credit_bits);
  e.f64(c.freq_ghz);
  e.f64(c.hop_mm);
  e.u8(static_cast<std::uint8_t>(c.link_swing));
  e.i64(c.hpc_max_override);
  e.i64(c.router_stages);
  e.u8(c.clock_gate_unused_ports ? 1 : 0);
  e.u64(c.seed);
  e.u64(c.warmup_cycles);
  e.u64(c.measure_cycles);
  e.u64(c.drain_timeout);
  e.u8(static_cast<std::uint8_t>(c.routing));
  e.f64(c.bandwidth_scale);
  e.u64(c.watchdog_window);
  e.i64(c.retry_limit);
  e.u64(c.retry_backoff_cycles);
  // c.shard_threads is excluded on purpose: like the executor's sweep thread
  // count, it cannot change a RunRecord (bit-identity at any shard count is
  // pinned by the GoldenShards matrix), so cached results stay valid across
  // shard settings and the encoded bytes - hence kPointKeyVersion - are
  // unchanged by the knob's introduction.
}

void encode_phase(CanonicalEncoder& e, const sim::PhaseSpec& p) {
  // p.name is a display label only - excluded on purpose.
  e.str(p.workload);
  e.f64(p.injection);
  e.u64(p.cycles);
  e.u8(p.measure ? 1 : 0);
  e.u8(p.traffic ? 1 : 0);
  e.u8(p.drain ? 1 : 0);
  e.u8(p.reconfigure ? 1 : 0);
  e.f64(p.fault_rate);
}

void encode_fault_event(CanonicalEncoder& e, const noc::FaultEventSpec& f) {
  e.u64(f.cycle);
  e.u8(static_cast<std::uint8_t>(f.kind));
  e.i64(f.node);
  e.u8(static_cast<std::uint8_t>(f.dir));
  e.u64(f.until);
}

}  // namespace

std::string canonical_point_bytes(const sim::ScenarioSpec& s) {
  CanonicalEncoder e;
  e.str("SNPK");  // magic: smartnoc point key
  e.u32(kPointKeyVersion);
  e.u8(static_cast<std::uint8_t>(s.design));
  encode_config(e, s.config);
  e.f64(s.fault_rate);
  e.u8(s.single_config_core ? 1 : 0);
  e.u64(s.store_issue_cycles);
  // Two retired slots (traffic mode, reference kernel), written as the
  // constants they always held - GapSkip, then 0 - so every key minted
  // before their retirement stays valid under this kPointKeyVersion.
  e.u8(static_cast<std::uint8_t>(noc::BernoulliMode::GapSkip));
  e.u8(0);
  e.u32(static_cast<std::uint32_t>(s.fault_events.size()));
  for (const noc::FaultEventSpec& f : s.fault_events) encode_fault_event(e, f);
  e.u32(static_cast<std::uint32_t>(s.phases.size()));
  for (const sim::PhaseSpec& p : s.phases) encode_phase(e, p);
  // s.name and s.telemetry are excluded: neither can change a RunRecord.
  return e.bytes();
}

Hash128 point_key(const sim::ScenarioSpec& scenario) {
  return hash128(canonical_point_bytes(scenario));
}

}  // namespace smartnoc::serve
