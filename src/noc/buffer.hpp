// Virtual-channel input buffer. Table II: 2 VCs per port, 10 flits deep.
// Virtual cut-through: one packet owns a VC from head arrival until its
// tail departs, and the depth is validated (NocConfig) to hold a whole
// packet, so a granted packet can always stream without backpressure.
//
// A VcBuffer is a ring over flit slots its owner provides; it never
// allocates. A VcBlock is that owner: one 64-byte-aligned allocation
// holding every VC of a router (or of a dedicated sink), each VC's header
// immediately followed by its flit slots, so a router's whole buffer state
// is one contiguous block and a VC's header shares lines with its slots.
// Slots hold 16-byte FlitRefs: a Table II VC (32-byte header + 10 flits)
// is exactly three cache lines, and a packet's stream through it touches
// no other line. The ring wraps with a compare, not a modulo.
//
// A freed VC restarts its ring at slot 0 (clear_request), so the header
// and slot a packet's head flit will be written to are known from the VC
// index alone: VcBlock::head_push_target names them without reading the
// header, which lets a router prefetch them a cycle before Buffer Write.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// packet (whose head will set a new request at Buffer Write). An empty
  /// ring rewinds to slot 0, where that head will land.
  void clear_request() {
    has_request_ = false;
    owner_ = kInvalidSlot;
    if (count_ == 0) head_ = 0;
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

/// `count` VCs of `depth` flits in one allocation, VC after VC, each a
/// header followed by its slots. Moving the block keeps every VC's slot
/// pointer valid (the allocation itself never moves).
class VcBlock {
 public:
  VcBlock() = default;
  VcBlock(int count, int depth)
      : count_(count),
        stride_(static_cast<int>(sizeof(VcBuffer)) + depth * static_cast<int>(sizeof(FlitRef))) {
    static_assert(std::is_trivially_destructible_v<VcBuffer> &&
                  std::is_trivially_destructible_v<FlitRef>);
    static_assert(sizeof(VcBuffer) % alignof(FlitRef) == 0 &&
                  sizeof(FlitRef) % alignof(VcBuffer) == 0);
    SMARTNOC_CHECK(count >= 0 && depth > 0, "VC block needs a positive depth");
    const auto bytes = static_cast<std::size_t>(count) * static_cast<std::size_t>(stride_);
    mem_.reset(static_cast<std::byte*>(::operator new[](bytes, kAlign)));
    for (int v = 0; v < count; ++v) {
      std::byte* rec = record(v);
      auto* slots = reinterpret_cast<FlitRef*>(rec + sizeof(VcBuffer));
      for (int k = 0; k < depth; ++k) new (slots + k) FlitRef{};
      new (rec) VcBuffer(slots, depth);
    }
  }

  int size() const { return count_; }

  /// Where the next head flit into VC `v` lands: the VC's header and its
  /// first slot (a freed VC has rewound to slot 0). Pure address
  /// arithmetic - nothing in the block is read.
  struct PushTarget {
    const VcBuffer* header;
    const FlitRef* slot;
  };
  PushTarget head_push_target(int v) const {
    const std::byte* rec = record(v);
    return {reinterpret_cast<const VcBuffer*>(rec),
            reinterpret_cast<const FlitRef*>(rec + sizeof(VcBuffer))};
  }
  /// Starts loading, for writing, every line from the header
  /// head_push_target(v) names through the VC's last slot: the head's
  /// header and slot, and the slots the packet's body fills after it.
  void prefetch_head_push(int v) const {
    const auto first = reinterpret_cast<std::uintptr_t>(head_push_target(v).header);
    const auto last = first + static_cast<std::uintptr_t>(stride_) - 1;
    for (auto line = first & ~std::uintptr_t{63}; line <= last; line += 64) {
      __builtin_prefetch(reinterpret_cast<const void*>(line), 1);
    }
  }

  VcBuffer& operator[](int v) { return *std::launder(reinterpret_cast<VcBuffer*>(record(v))); }
  const VcBuffer& operator[](int v) const {
    return *std::launder(reinterpret_cast<const VcBuffer*>(record(v)));
  }

 private:
  static constexpr std::align_val_t kAlign{64};
  struct Free {
    void operator()(std::byte* p) const { ::operator delete[](p, kAlign); }
  };
  std::byte* record(int v) const {
    return mem_.get() + static_cast<std::ptrdiff_t>(v) * stride_;
  }

  std::unique_ptr<std::byte[], Free> mem_;
  int count_ = 0;
  int stride_ = 0;  ///< bytes per VC: header, then depth slots
};

}  // namespace smartnoc::noc
