// Round-robin arbiter used for switch allocation. The grant pointer
// advances past the winner, giving the classic strong-fairness guarantee
// that tests pin down (no requester starves under continuous contention).
//
// Requests are a fixed-width ArbMask, so building the request set costs no
// heap allocation, and the pick is a bit scan: the first set bit at or
// after the pointer, wrapping once - no per-probe division.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "common/types.hpp"

namespace smartnoc::noc {

/// Upper bound on arbiter width: 5 ports x the 16-VC cap that
/// NocConfig::validate() enforces on vcs_per_port.
inline constexpr int kMaxArbInputs = kNumDirs * 16;

/// Fixed-width request set: bit i set = input i requests the output. Two
/// machine words; find_next() scans with count-trailing-zeros, so callers
/// visit set bits only.
class ArbMask {
 public:
  void set(int i) { w_[word(i)] |= bit(i); }
  void reset(int i) { w_[word(i)] &= ~bit(i); }
  bool test(int i) const { return (w_[word(i)] & bit(i)) != 0; }
  bool none() const {
    std::uint64_t any = 0;
    for (std::uint64_t w : w_) any |= w;
    return any == 0;
  }
  /// Sets bits [lo, lo + n).
  void set_range(int lo, int n) {
    for (int i = lo; i < lo + n; ++i) set(i);
  }

  /// The first set bit at index >= from, or -1 when there is none.
  int find_next(int from) const {
    for (int k = from >> 6; k < kWords; ++k) {
      std::uint64_t w = w_[static_cast<std::size_t>(k)];
      if (k == from >> 6) w &= ~std::uint64_t{0} << (from & 63);
      if (w != 0) return k * 64 + std::countr_zero(w);
    }
    return -1;
  }

  ArbMask& operator|=(const ArbMask& o) {
    for (std::size_t k = 0; k < w_.size(); ++k) w_[k] |= o.w_[k];
    return *this;
  }
  /// The bits of this mask that are clear in `o`.
  ArbMask without(const ArbMask& o) const {
    ArbMask r = *this;
    for (std::size_t k = 0; k < w_.size(); ++k) r.w_[k] &= ~o.w_[k];
    return r;
  }
  friend bool operator==(const ArbMask&, const ArbMask&) = default;

 private:
  static constexpr int kWords = (kMaxArbInputs + 63) / 64;
  static std::size_t word(int i) { return static_cast<std::size_t>(i >> 6); }
  static std::uint64_t bit(int i) { return std::uint64_t{1} << (i & 63); }

  std::array<std::uint64_t, kWords> w_{};
};

class RoundRobinArbiter {
 public:
  RoundRobinArbiter() = default;
  explicit RoundRobinArbiter(int inputs) : n_(inputs) {
    SMARTNOC_CHECK(inputs <= kMaxArbInputs, "arbiter wider than kMaxArbInputs");
  }

  int inputs() const { return n_; }

  /// Picks the first requesting index at or after the pointer, wrapping
  /// once; advances the pointer past the winner. Bits at or above inputs()
  /// are ignored. Returns nullopt when nothing requests.
  std::optional<int> arbitrate(const ArbMask& requests) {
    int i = requests.find_next(ptr_);
    if (i < 0 || i >= n_) i = requests.find_next(0);
    if (i < 0 || i >= n_) return std::nullopt;
    ptr_ = i + 1 == n_ ? 0 : i + 1;
    return i;
  }

 private:
  int n_ = 0;
  int ptr_ = 0;
};

/// A fixed-capacity FIFO of VC ids (free-VC queues at router outputs and
/// NIC sources). Capacity covers the vcs_per_port <= 16 config cap, so
/// push/pop never touch the heap.
class VcQueue {
 public:
  bool empty() const { return count_ == 0; }
  int size() const { return count_; }

  void push_back(VcId vc) {
    SMARTNOC_CHECK(count_ < kCapacity, "VcQueue overflow");
    slots_[static_cast<std::size_t>((head_ + count_) % kCapacity)] = vc;
    ++count_;
  }

  VcId front() const {
    SMARTNOC_CHECK(count_ > 0, "front of empty VcQueue");
    return slots_[static_cast<std::size_t>(head_)];
  }

  VcId pop_front() {
    SMARTNOC_CHECK(count_ > 0, "pop of empty VcQueue");
    const VcId vc = slots_[static_cast<std::size_t>(head_)];
    head_ = (head_ + 1) % kCapacity;
    --count_;
    return vc;
  }

 private:
  static constexpr int kCapacity = 16;  // NocConfig caps vcs_per_port at 16
  std::array<VcId, kCapacity> slots_{};
  int head_ = 0;
  int count_ = 0;
};

}  // namespace smartnoc::noc
