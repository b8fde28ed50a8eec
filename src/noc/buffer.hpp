// Virtual-channel input buffer. Table II: 2 VCs per port, 10 flits deep.
// Virtual cut-through: one packet owns a VC from head arrival until its
// tail departs, and the depth is validated (NocConfig) to hold a whole
// packet, so a granted packet can always stream without backpressure.
//
// A VcBuffer is a ring over flit slots its owner provides; it never
// allocates. A VcBlock is that owner: one allocation holding every VC
// header of a router (or of a dedicated sink) followed by all their flit
// slots, so a router's whole buffer state is one contiguous block instead
// of per-port vectors of headers that each point at another heap vector.
// Slots hold 16-byte FlitRefs - a whole Table II VC (10 flits) spans two
// and a half cache lines. The ring wraps with a compare, not a modulo.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#include "common/error.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace smartnoc::noc {

class VcBuffer {
 public:
  /// A ring over `depth` slots at `slots`, which must outlive the buffer.
  VcBuffer(FlitRef* slots, int depth) : slots_(slots), depth_(depth) {}

  bool empty() const { return count_ == 0; }
  int occupancy() const { return count_; }
  int depth() const { return depth_; }

  void push(FlitRef f) {
    SMARTNOC_CHECK(count_ < depth_, "VC overflow: flow control must prevent this");
    int tail = head_ + count_;
    if (tail >= depth_) tail -= depth_;
    slots_[tail] = f;
    ++count_;
  }

  const FlitRef& front() const {
    SMARTNOC_CHECK(count_ > 0, "reading from empty VC");
    return slots_[head_];
  }

  FlitRef pop() {
    SMARTNOC_CHECK(count_ > 0, "popping empty VC");
    const FlitRef f = slots_[head_];
    if (++head_ == depth_) head_ = 0;
    --count_;
    return f;
  }

  // --- Per-packet VC state (virtual cut-through) ---------------------------

  /// Head flit decoded: the output port this packet requests. `owner`
  /// records which packet holds the VC, so the fault engine can identify a
  /// mid-stream VC (momentarily empty while its body is still upstream)
  /// when purging a dying packet.
  void set_request(Dir out, PacketSlot owner = kInvalidSlot) {
    requested_out_ = out;
    owner_ = owner;
    has_request_ = true;
  }
  bool has_request() const { return has_request_; }
  Dir requested_out() const {
    SMARTNOC_CHECK(has_request_, "no decoded request on this VC");
    return requested_out_;
  }
  /// The packet currently holding this VC (kInvalidSlot when none).
  PacketSlot owner() const { return has_request_ ? owner_ : kInvalidSlot; }
  /// Called when the packet's tail leaves: the VC is free for the next
  /// packet (whose head will set a new request at Buffer Write).
  void clear_request() {
    has_request_ = false;
    owner_ = kInvalidSlot;
  }

 private:
  FlitRef* slots_;
  int depth_;
  int head_ = 0;
  int count_ = 0;
  PacketSlot owner_ = kInvalidSlot;
  Dir requested_out_ = Dir::Core;
  bool has_request_ = false;
};

/// `count` VCs of `depth` flits in one allocation: the headers first, then
/// each VC's slots in VC order. Moving the block keeps every VC's slot
/// pointer valid (the allocation itself never moves).
class VcBlock {
 public:
  VcBlock() = default;
  VcBlock(int count, int depth) : count_(count) {
    static_assert(std::is_trivially_destructible_v<VcBuffer> &&
                  std::is_trivially_destructible_v<FlitRef>);
    static_assert(sizeof(VcBuffer) % alignof(FlitRef) == 0);
    SMARTNOC_CHECK(count >= 0 && depth > 0, "VC block needs a positive depth");
    const auto n = static_cast<std::size_t>(count);
    const auto slots = n * static_cast<std::size_t>(depth);
    mem_ = std::make_unique<std::byte[]>(n * sizeof(VcBuffer) + slots * sizeof(FlitRef));
    auto* first_slot = reinterpret_cast<FlitRef*>(mem_.get() + n * sizeof(VcBuffer));
    for (std::size_t k = 0; k < slots; ++k) new (first_slot + k) FlitRef{};
    for (std::size_t v = 0; v < n; ++v) {
      new (mem_.get() + v * sizeof(VcBuffer))
          VcBuffer(first_slot + v * static_cast<std::size_t>(depth), depth);
    }
    vcs_ = std::launder(reinterpret_cast<VcBuffer*>(mem_.get()));
  }

  int size() const { return count_; }
  VcBuffer& operator[](int v) { return vcs_[v]; }
  const VcBuffer& operator[](int v) const { return vcs_[v]; }
  VcBuffer* begin() { return vcs_; }
  VcBuffer* end() { return vcs_ + count_; }
  const VcBuffer* begin() const { return vcs_; }
  const VcBuffer* end() const { return vcs_ + count_; }

 private:
  std::unique_ptr<std::byte[]> mem_;
  VcBuffer* vcs_ = nullptr;  ///< the headers at the start of mem_
  int count_ = 0;
};

}  // namespace smartnoc::noc
