// Deterministic random number generation.
//
// The simulator must be bit-reproducible across platforms and runs: the
// paper_report CSVs pinned under results/paper/ and exact-value regression
// tests depend on it.
// We therefore avoid std::mt19937 + distribution objects (distributions are
// implementation-defined) and implement SplitMix64 (for seeding / cheap
// streams) and Xoshiro256** (for bulk draws) with explicit conversions.
#pragma once

#include <cstdint>

namespace smartnoc {

/// SplitMix64: tiny, fast, passes BigCrush when used as a stream; primarily
/// used to derive independent sub-streams from (seed, key) pairs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the workhorse generator.
class Xoshiro256 {
 public:
  /// Seeds the four lanes from a SplitMix64 stream, as recommended by the
  /// xoshiro authors.
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& lane : s_) lane = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 significant bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // 128-bit multiply-shift; rejection loop corrects the bias.
    while (true) {
      const std::uint64_t x = next();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

/// Derives a generator for a named sub-stream: e.g. one per flow, one per
/// NIC. Mixing the key through SplitMix64 decorrelates nearby keys.
inline Xoshiro256 make_stream(std::uint64_t seed, std::uint64_t key) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (key + 1)));
  return Xoshiro256(sm.next());
}

}  // namespace smartnoc
