// Versioned compact binary packet-trace files: record a workload once,
// replay it from disk bit-identically (the repo's first durable on-disk
// artifact pipeline).
//
// A trace file is self-contained: it carries the full NocConfig of the
// recording era and the exact flow set (ids, routes, bandwidths) alongside
// the injection events, so `trace:<file>` replays rebuild the *same*
// network the recording ran on - presets, register program and all - and a
// replayed run reproduces the live run's RunResult bit-identically (pinned
// by tests).
//
// Layout v1 (all integers little-endian; varint = unsigned LEB128):
//
//   u32  magic   "SNTR" (0x53 0x4E 0x54 0x52 on disk)
//   u16  version (1)
//   config block: varint width, height, flit_bits, packet_bits,
//                 vcs_per_port, vc_depth_flits, header_bits, credit_bits,
//                 u64 freq_ghz bits, u64 hop_mm bits, varint link_swing,
//                 hpc_max_override, router_stages, clock_gate, seed,
//                 warmup, measure, drain_timeout, routing,
//                 u64 bandwidth_scale bits
//   varint flow_count
//     per flow: varint src, varint dst, u64 bandwidth_mbps bits,
//               varint hops, then one byte per hop (Dir, 0..3)
//   varint record_count
//     per record: varint cycle delta (first record: absolute cycle),
//                 varint flow id
//   u32  end magic "TEND" (truncation tripwire)
//
// Layout v2 (streaming-friendly; what StreamingTraceWriter emits and a
// Session's multi-era record_trace produces):
//
//   u32  magic "SNTR", u16 version (2)
//   one or more era sections:
//     u32  era magic "ERA!"
//     config block + flow table      (exactly the v1 encodings)
//     record chunks: varint chunk_len (> 0) followed by exactly chunk_len
//       bytes of whole (varint cycle-delta, varint flow) records - a
//       record straddling a chunk boundary is a decode error - then a
//       varint 0 terminating the era's records. Cycles are *era-local*
//       (each era's network restarts at 0); delta encoding restarts too.
//   u32  end magic "TEND"
//
// Chunked framing is what removes the v1 up-front record_count: a writer
// can append records as the run produces them with bounded memory and no
// back-patching, and every chunk boundary is a truncation tripwire.
// TraceReader reads both versions; TraceWriter still emits v1 (a buffered
// single-era capture replays everywhere, including older builds).
//
// Every decode error - short file, bad magic, unknown version, a varint
// running past the end or past 10 bytes, an out-of-range flow/direction, a
// non-finite or negative flow bandwidth - throws TraceError; there are no
// partial silent reads.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/flow.hpp"
#include "noc/traffic.hpp"

namespace smartnoc::telemetry {

inline constexpr std::uint32_t kTraceMagic = 0x52544E53;     // "SNTR" in LE byte order
inline constexpr std::uint32_t kTraceEndMagic = 0x444E4554;  // "TEND"
inline constexpr std::uint32_t kTraceEraMagic = 0x21415245;  // "ERA!"
inline constexpr std::uint16_t kTraceVersionV1 = 1;
inline constexpr std::uint16_t kTraceVersion = 2;  ///< newest readable/writable

/// One recording era: the configuration and flow table the era's network
/// was built from, plus its injection events in era-local cycles.
struct TraceEra {
  NocConfig config;
  noc::FlowSet flows;
  std::vector<noc::TraceEntry> entries;
};

/// A decoded trace: everything needed to re-execute the recorded run.
/// A decoded file always holds at least one era; single-era consumers read
/// `eras.front()`.
struct TraceFile {
  std::uint16_t version = kTraceVersionV1;  ///< on-disk version as read
  std::vector<TraceEra> eras;               ///< all eras (size 1 for v1 files)
};

/// Serializes a buffered single-era capture as format v1. Records must be
/// added in nondecreasing cycle order (delta encoding; add() throws
/// TraceError otherwise).
class TraceWriter {
 public:
  TraceWriter(const NocConfig& config, const noc::FlowSet& flows);

  void add(Cycle cycle, FlowId flow);
  void add_all(const std::vector<noc::TraceEntry>& entries);
  std::uint64_t records() const { return records_; }

  /// The complete binary image (header + records + end marker).
  std::string encode() const;

  /// Writes encode() to `path`. Throws TraceError on I/O failure.
  void write(const std::string& path) const;

 private:
  NocConfig config_;
  int flow_count_ = 0;
  std::string header_;   ///< config + flow table (fixed at construction)
  std::string records_buf_;
  std::uint64_t records_ = 0;
  Cycle last_cycle_ = 0;
};

/// Appends a format-v2 capture to disk as the run produces it, with
/// bounded memory (one ~64 KiB record chunk plus stream buffers - capture
/// length never shows up in the resident set). Drive it as:
///
///   StreamingTraceWriter w(path);      // writes the file header
///   w.begin_era(cfg, flows);           // once per era, before its records
///   w.add(cycle, flow);                // era-local cycles, nondecreasing
///   ...
///   w.begin_era(cfg2, flows2);         // a reconfiguration: new section
///   ...
///   w.finish();                        // end marker + flush (idempotent)
///
/// All ordering/range violations and I/O failures throw TraceError. The
/// destructor finishes the file best-effort (errors swallowed); call
/// finish() explicitly to observe them.
class StreamingTraceWriter {
 public:
  explicit StreamingTraceWriter(const std::string& path);
  ~StreamingTraceWriter();

  StreamingTraceWriter(const StreamingTraceWriter&) = delete;
  StreamingTraceWriter& operator=(const StreamingTraceWriter&) = delete;

  /// Opens a new era section (closing the previous era's records first).
  void begin_era(const NocConfig& config, const noc::FlowSet& flows);
  /// Appends one injection record to the current era.
  void add(Cycle cycle, FlowId flow);
  void finish();

  std::uint64_t records() const { return records_; }
  std::uint64_t eras() const { return eras_; }
  const std::string& path() const { return path_; }

 private:
  /// Flushes the pending record chunk as (varint length, bytes).
  void flush_chunk();
  void check_stream(const char* what);

  std::string path_;
  std::ofstream out_;
  std::string chunk_;      ///< pending records of the open section
  std::uint64_t records_ = 0;
  std::uint64_t eras_ = 0;
  int flow_count_ = 0;     ///< current era's flow table size
  Cycle last_cycle_ = 0;   ///< current era's last record cycle
  std::uint64_t era_records_ = 0;
  bool finished_ = false;
};

/// Decodes a binary image (format v1 or v2). Throws TraceError on any
/// malformation.
TraceFile decode_trace(const std::string& bytes);

/// Reads and decodes `path`. Throws TraceError when unreadable.
TraceFile read_trace_file(const std::string& path);

/// One-line human summary (config, flows, records, cycle span) as printed
/// by `trace_tool info`.
std::string summarize_trace(const TraceFile& trace);

/// Structured comparison of two decoded captures (`trace_tool diff`):
/// configuration field by field, flow table entry by entry, then the
/// injection records up to their first divergence. `report` holds one
/// human-readable line per difference (empty when identical).
struct TraceDiff {
  bool identical = true;
  std::string report;
};
TraceDiff diff_traces(const TraceFile& a, const TraceFile& b);

}  // namespace smartnoc::telemetry
