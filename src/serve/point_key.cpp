#include "serve/point_key.hpp"

#include <type_traits>

namespace smartnoc::serve {

// Layout tripwires: if one of these structs grows a field, the field table
// (sim/scenario.hpp, common/config_fields.hpp) silently stops covering part
// of the point's identity and the cache would alias distinct computations.
// The assert forces whoever adds the field to add its row (and, if the row
// is in the key, bump kPointKeyVersion). Sizes are for the LP64 ABI every
// supported target uses; adjust alongside the table if that ever changes.
static_assert(sizeof(NocConfig) == 144,
              "NocConfig changed: add a row to for_each_config_field");
static_assert(sizeof(sim::PhaseSpec) == 96,
              "PhaseSpec changed: add a row to for_each_phase_field");
static_assert(sizeof(noc::FaultEventSpec) == 32,
              "FaultEventSpec changed: extend encode_fault_event and bump kPointKeyVersion");
static_assert(sizeof(sim::ScenarioSpec) == 432,
              "ScenarioSpec changed: add a row to sim::for_each_field");

namespace {

// Key encoding follows the row's type. The mesh view row is never in the
// key (its width and height rows are), but every row type has an encoding.
template <class E, class T>
void put(E& e, const T& v) {
  if constexpr (std::is_same_v<T, bool>) e.u8(v ? 1 : 0);
  else if constexpr (std::is_same_v<T, int>) e.i64(v);
  else if constexpr (std::is_same_v<T, std::uint64_t>) e.u64(v);
  else if constexpr (std::is_same_v<T, double>) e.f64(v);
  else if constexpr (std::is_same_v<T, std::string>) e.str(v);
  else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enum rows encode as one byte");
    e.u8(static_cast<std::uint8_t>(v));
  } else {  // MeshRef: the bytes of its width and height rows
    e.i64(v.width);
    e.i64(v.height);
  }
}

template <class E>
void encode_fault_event(E& e, const noc::FaultEventSpec& f) {
  e.u64(f.cycle);
  e.u8(static_cast<std::uint8_t>(f.kind));
  e.i64(f.node);
  e.u8(static_cast<std::uint8_t>(f.dir));
  e.u64(f.until);
}

template <class E>
void encode_point(E& e, const sim::ScenarioSpec& s) {
  e.str("SNPK");  // magic: smartnoc point key
  e.u32(kPointKeyVersion);
  auto encode_row = [&e](const FieldMeta& m, const auto& v) {
    if (m.in_point_key) put(e, v);
  };
  sim::for_each_field(encode_row, s);
  // Two retired slots (traffic mode, kernel switch), written as the
  // constants they always held - 1 (the geometric skip-ahead process), then
  // 0 - so every key minted before their retirement stays valid under this
  // kPointKeyVersion.
  e.u8(1);
  e.u8(0);
  e.u32(static_cast<std::uint32_t>(s.fault_events.size()));
  for (const noc::FaultEventSpec& f : s.fault_events) encode_fault_event(e, f);
  e.u32(static_cast<std::uint32_t>(s.phases.size()));
  for (const sim::PhaseSpec& p : s.phases) sim::for_each_phase_field(encode_row, p);
}

}  // namespace

std::string canonical_point_bytes(const sim::ScenarioSpec& s) {
  CanonicalEncoder e;
  encode_point(e, s);
  return e.out();
}

Hash128 point_key(const sim::ScenarioSpec& scenario) {
  // Hashed as it is encoded: a warm sweep derives a key per point, and
  // builds no byte string for it.
  CanonicalEncoder<Hash128Stream> e;
  encode_point(e, scenario);
  return e.out().digest();
}

}  // namespace smartnoc::serve
