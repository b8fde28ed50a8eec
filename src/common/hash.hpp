// Content hashing for the sweep-serving subsystem: FNV-1a (64- and
// 128-bit-by-two-lanes) plus a typed canonical byte encoder.
//
// The serving cache keys durable on-disk state by these hashes, so they are
// part of the persisted format: the algorithm, the lane seeds and the
// encoder's byte layout are all pinned by golden-vector tests
// (tests/test_serve.cpp) and must never change silently. Evolve the format
// by bumping the version tag the encoder users fold into their bytes, which
// cleanly invalidates old entries instead of aliasing them.
#pragma once

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

namespace smartnoc {

/// Incremental FNV-1a over bytes. Standard offset basis / prime; a nonzero
/// `salt` derives an independent lane from the same byte stream.
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  explicit Fnv1a64(std::uint64_t salt = 0) : state_(kOffset ^ salt) {}

  void update(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    state_ = h;
  }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_;
};

inline std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t salt = 0) {
  Fnv1a64 h(salt);
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

/// fnv1a64 of four byte strings at once, equal to four fnv1a64 calls. One
/// FNV-1a chain waits on each multiply; four independent chains overlap in
/// the pipeline while they share a length, and the longer ones finish
/// alone.
inline void fnv1a64_x4(const std::string_view (&in)[4], std::uint64_t (&out)[4]) {
  std::uint64_t h[4];
  std::size_t shared = in[0].size();
  for (int l = 0; l < 4; ++l) {
    h[l] = Fnv1a64::kOffset;
    if (in[l].size() < shared) shared = in[l].size();
  }
  for (std::size_t i = 0; i < shared; ++i) {
    for (int l = 0; l < 4; ++l) {
      h[l] = (h[l] ^ static_cast<unsigned char>(in[l][i])) * Fnv1a64::kPrime;
    }
  }
  for (int l = 0; l < 4; ++l) {
    for (std::size_t i = shared; i < in[l].size(); ++i) {
      h[l] = (h[l] ^ static_cast<unsigned char>(in[l][i])) * Fnv1a64::kPrime;
    }
    out[l] = h[l];
  }
}

/// Parses exactly 16 hex digits (either case) into `v`; false on anything
/// else (wrong length, a sign, a prefix, a non-hex byte).
inline bool parse_hex64(std::string_view s, std::uint64_t& v) {
  if (s.size() != 16) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

/// A 128-bit content hash: two independently salted FNV-1a lanes over the
/// same bytes. Collision odds for a cache of N entries are ~N^2/2^129 -
/// negligible at any sweep scale this project will see.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// The inverse of hex(): 32 hex digits, hi lane first.
  static std::optional<Hash128> from_hex(std::string_view s) {
    Hash128 h;
    if (s.size() != 32 || !parse_hex64(s.substr(0, 16), h.hi) ||
        !parse_hex64(s.substr(16), h.lo)) {
      return std::nullopt;
    }
    return h;
  }

  /// 32 lowercase hex characters, hi lane first (the on-disk key form).
  std::string hex() const {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
  }

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Salt of the second lane. An arbitrary odd constant (the golden-ratio
/// mixer); pinned by the golden vectors like everything else here.
inline constexpr std::uint64_t kHash128LoSalt = 0x9e3779b97f4a7c15ULL;

/// hash128 fed in pieces: appending bytes in any split gives the hash of
/// their concatenation. The two lanes are independent multiply chains, so
/// they overlap in the pipeline instead of running back to back.
class Hash128Stream {
 public:
  void append(std::string_view bytes) {
    std::uint64_t hi = hi_;
    std::uint64_t lo = lo_;
    for (const char c : bytes) {
      const auto b = static_cast<unsigned char>(c);
      hi = (hi ^ b) * Fnv1a64::kPrime;
      lo = (lo ^ b) * Fnv1a64::kPrime;
    }
    hi_ = hi;
    lo_ = lo;
  }

  Hash128 digest() const { return Hash128{hi_, lo_}; }

 private:
  std::uint64_t hi_ = Fnv1a64::kOffset;
  std::uint64_t lo_ = Fnv1a64::kOffset ^ kHash128LoSalt;
};

/// Equal to {fnv1a64(bytes, 0), fnv1a64(bytes, kHash128LoSalt)}, computed
/// in one pass.
inline Hash128 hash128(std::string_view bytes) {
  Hash128Stream h;
  h.append(bytes);
  return h.digest();
}

/// Appends typed values to a byte sink in a fixed, platform-independent
/// layout: integers little-endian at fixed widths, doubles as their IEEE-754
/// bit pattern, strings length-prefixed. Every value is preceded by nothing -
/// framing is the writer's responsibility (the canonical encodings tag a
/// version up front) - so identical field sequences produce identical bytes.
/// The sink is a std::string that collects the bytes, or a Hash128Stream
/// that hashes them as they come, with no string built.
template <class Out = std::string>
class CanonicalEncoder {
 public:
  void u8(std::uint8_t v) {
    const char b = static_cast<char>(v);
    out_.append(std::string_view(&b, 1));
  }

  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }

  /// Signed values two's-complement through the unsigned path (bit-exact on
  /// every platform this project targets).
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// The bit pattern, not a decimal rendering: two doubles encode equal iff
  /// they are bit-identical (so -0.0 != +0.0 and every NaN payload is
  /// distinct - exactly what a content key wants).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  const Out& out() const { return out_; }

 private:
  /// The low `n` bytes of v, little-endian, appended in one go.
  void le(std::uint64_t v, int n) {
    char b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.append(std::string_view(b, static_cast<std::size_t>(n)));
  }

  Out out_;
};

}  // namespace smartnoc
