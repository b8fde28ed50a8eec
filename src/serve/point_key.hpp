// Content addressing for sweep points.
//
// A sweep point's identity is the fully-resolved ScenarioSpec it executes
// (design + NocConfig + phases/workloads + fault schedule + seed - see
// explore::make_point_scenario). canonical_point_bytes lays that structure
// out as a stable, versioned byte string - fixed-width little-endian
// integers, IEEE-754 bit patterns for doubles, length-prefixed strings -
// and point_key hashes it to the 128-bit key the result cache stores under.
// point_key hashes the bytes as it encodes them, so no byte string is built;
// the key equals hash128(canonical_point_bytes(...)).
//
// Stability contract: the byte layout and the hash are durable on-disk
// format. Golden vectors in tests/test_serve.cpp pin both; any change to
// the layout (including NocConfig/PhaseSpec growing a result-relevant
// field) must bump kPointKeyVersion so old cache entries miss instead of
// aliasing a different computation. Fields that cannot affect a RunRecord -
// the scenario's display name, the telemetry output block - are excluded,
// so e.g. runs with and without a probe attached share one cache entry
// (the probe is gated non-intrusive by the telemetry tests).
#pragma once

#include <string>

#include "common/hash.hpp"
#include "sim/scenario.hpp"

namespace smartnoc::serve {

/// Bumped whenever the canonical layout changes meaning. Folded into the
/// bytes, so a bump changes every key and cleanly retires old entries.
inline constexpr std::uint32_t kPointKeyVersion = 1;

/// The versioned canonical byte encoding of everything that determines the
/// scenario's RunRecord.
std::string canonical_point_bytes(const sim::ScenarioSpec& scenario);

/// The cache key: hash128 over canonical_point_bytes.
Hash128 point_key(const sim::ScenarioSpec& scenario);

}  // namespace smartnoc::serve
