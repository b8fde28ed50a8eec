// Reconfiguration registers (paper Section V):
//
//   "we encode the preset signals for crossbars and input/output ports into
//    a double-word configuration register for each router. These registers
//    are memory mapped such that these can be set by performing a few
//    memory store operations."
//
// 64-bit layout (little-endian bit offsets):
//
//   [ 4: 0]  input bypass mux, 1 bit per port (E,S,W,N,C); 1 = bypass
//   [19: 5]  forward crossbar select, 3 bits per output port:
//              0..4 = FromLink(E,S,W,N,C), 5 = FromRouter, 6 = Off
//   [34:20]  credit crossbar select, same 3-bit encoding
//   [39:35]  input-port clock enable (clock gating preset)
//   [44:40]  output-port clock enable
//   [63:45]  reserved, must be zero
//
// The encoding is load-bearing: make_smart_network() materializes presets
// through encode+decode, and sim::Session builds each SMART era from the
// decoded registers after running the store program against its live bank,
// so every simulated SMART configuration has passed through the register
// image (and the round-trip is pinned by tests).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/geometry.hpp"
#include "noc/preset.hpp"

namespace smartnoc::smart {

/// Encodes one router's preset into its double-word register value.
std::uint64_t encode_preset(const noc::RouterPreset& preset);

/// Decodes a register value. Throws ConfigError on malformed images
/// (unknown select codes, nonzero reserved bits).
noc::RouterPreset decode_preset(std::uint64_t word);

/// One memory store of a reconfiguration program.
struct Store {
  std::uint64_t addr = 0;
  std::uint64_t value = 0;

  friend bool operator==(const Store&, const Store&) = default;
};

/// The memory-mapped register bank of an N-router SMART NoC.
class RegisterFile {
 public:
  static constexpr std::uint64_t kBase = 0xF000'0000ULL;  ///< MMIO window base
  static constexpr std::uint64_t kStride = 8;             ///< double-word per router

  explicit RegisterFile(int routers);

  static std::uint64_t address_of(NodeId router) {
    return kBase + kStride * static_cast<std::uint64_t>(router);
  }

  /// MMIO store; throws ConfigError for addresses outside the window.
  void store(std::uint64_t addr, std::uint64_t value);
  std::uint64_t load(std::uint64_t addr) const;

  int routers() const { return static_cast<int>(regs_.size()); }

  /// Decodes the whole bank into a preset table.
  noc::PresetTable decode_all(const MeshDims& dims) const;

 private:
  std::vector<std::uint64_t> regs_;
};

/// Compiles a preset table into the store sequence an application would
/// prepend ("application developers need to prepend the application with
/// memory store instructions"). When `diff_against` is given, only changed
/// registers are stored (an optimization the paper's flow permits; the
/// full program for a 16-node NoC is the paper's "16 instructions").
std::vector<Store> compile_program(const noc::PresetTable& presets);
std::vector<Store> compile_program_diff(const noc::PresetTable& presets,
                                        const RegisterFile& current);

/// Pushes presets through the register image and back - the production
/// path for building SMART networks, guaranteeing the encoding is exercised.
noc::PresetTable roundtrip_through_registers(const noc::PresetTable& presets,
                                             const MeshDims& dims);

}  // namespace smartnoc::smart
