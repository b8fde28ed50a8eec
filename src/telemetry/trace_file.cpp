#include "telemetry/trace_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/config_fields.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/table.hpp"

namespace smartnoc::telemetry {

namespace {

// --- Primitive encoders ------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void put_double(std::string& out, double d) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  std::memcpy(&bits, &d, sizeof bits);
  for (int i = 0; i < 8; ++i) out += static_cast<char>((bits >> (8 * i)) & 0xFF);
}

// --- Primitive decoders (bounds-checked; everything throws TraceError) -------

class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : s_(bytes) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return s_.size() - pos_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw TraceError("trace offset " + std::to_string(pos_) + ": " + msg);
  }

  std::uint8_t byte(const char* what) {
    if (pos_ >= s_.size()) fail(std::string("truncated trace file (reading ") + what + ")");
    return static_cast<std::uint8_t>(s_[pos_++]);
  }

  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(byte(what)) << (8 * i);
    return v;
  }

  std::uint16_t u16(const char* what) {
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(byte(what)) << (8 * i);
    return v;
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = byte(what);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // Reject non-canonical garbage in the 10th byte (bits past 2^64).
        if (shift == 63 && (b & 0x7E) != 0) fail(std::string("garbage varint in ") + what);
        return v;
      }
    }
    fail(std::string("garbage varint in ") + what + " (continuation past 10 bytes)");
  }

  /// A varint that must fit an int and lie in [lo, hi].
  int ranged_int(const char* what, int lo, int hi) {
    const std::uint64_t v = varint(what);
    if (v > static_cast<std::uint64_t>(hi) || static_cast<int>(v) < lo) {
      fail(std::string(what) + " out of range: " + std::to_string(v));
    }
    return static_cast<int>(v);
  }

  double f64(const char* what) {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(byte(what)) << (8 * i);
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

void encode_config(std::string& out, const NocConfig& cfg) {
  put_varint(out, static_cast<std::uint64_t>(cfg.width));
  put_varint(out, static_cast<std::uint64_t>(cfg.height));
  put_varint(out, static_cast<std::uint64_t>(cfg.flit_bits));
  put_varint(out, static_cast<std::uint64_t>(cfg.packet_bits));
  put_varint(out, static_cast<std::uint64_t>(cfg.vcs_per_port));
  put_varint(out, static_cast<std::uint64_t>(cfg.vc_depth_flits));
  put_varint(out, static_cast<std::uint64_t>(cfg.header_bits));
  put_varint(out, static_cast<std::uint64_t>(cfg.credit_bits));
  put_double(out, cfg.freq_ghz);
  put_double(out, cfg.hop_mm);
  put_varint(out, static_cast<std::uint64_t>(cfg.link_swing));
  put_varint(out, static_cast<std::uint64_t>(cfg.hpc_max_override));
  put_varint(out, static_cast<std::uint64_t>(cfg.router_stages));
  put_varint(out, cfg.clock_gate_unused_ports ? 1 : 0);
  put_varint(out, cfg.seed);
  put_varint(out, cfg.warmup_cycles);
  put_varint(out, cfg.measure_cycles);
  put_varint(out, cfg.drain_timeout);
  put_varint(out, static_cast<std::uint64_t>(cfg.routing));
  put_double(out, cfg.bandwidth_scale);
}

NocConfig decode_config(Cursor& c) {
  NocConfig cfg;
  cfg.width = c.ranged_int("width", 1, 1 << 16);
  cfg.height = c.ranged_int("height", 1, 1 << 16);
  cfg.flit_bits = c.ranged_int("flit_bits", 1, 1 << 20);
  cfg.packet_bits = c.ranged_int("packet_bits", 1, 1 << 24);
  cfg.vcs_per_port = c.ranged_int("vcs_per_port", 1, 16);
  cfg.vc_depth_flits = c.ranged_int("vc_depth_flits", 1, 1 << 20);
  cfg.header_bits = c.ranged_int("header_bits", 1, 1 << 16);
  cfg.credit_bits = c.ranged_int("credit_bits", 1, 64);
  cfg.freq_ghz = c.f64("freq_ghz");
  cfg.hop_mm = c.f64("hop_mm");
  cfg.link_swing = static_cast<Swing>(c.ranged_int("link_swing", 0, 1));
  cfg.hpc_max_override = c.ranged_int("hpc_max_override", 0, 1 << 16);
  cfg.router_stages = c.ranged_int("router_stages", 1, 16);
  cfg.clock_gate_unused_ports = c.varint("clock_gate") != 0;
  cfg.seed = c.varint("seed");
  cfg.warmup_cycles = c.varint("warmup_cycles");
  cfg.measure_cycles = c.varint("measure_cycles");
  cfg.drain_timeout = c.varint("drain_timeout");
  cfg.routing = static_cast<RoutingPolicy>(c.ranged_int("routing", 0, 1));
  cfg.bandwidth_scale = c.f64("bandwidth_scale");
  return cfg;
}

}  // namespace

// --- Writer ------------------------------------------------------------------

namespace {

void encode_flow_table(std::string& out, const noc::FlowSet& flows) {
  put_varint(out, static_cast<std::uint64_t>(flows.size()));
  for (const noc::Flow& f : flows) {
    put_varint(out, static_cast<std::uint64_t>(f.src));
    put_varint(out, static_cast<std::uint64_t>(f.dst));
    put_double(out, f.bandwidth_mbps);
    put_varint(out, static_cast<std::uint64_t>(f.path.links.size()));
    for (Dir d : f.path.links) out += static_cast<char>(dir_index(d));
  }
}

}  // namespace

TraceWriter::TraceWriter(const NocConfig& config, const noc::FlowSet& flows)
    : config_(config), flow_count_(flows.size()) {
  put_u32(header_, kTraceMagic);
  put_u16(header_, kTraceVersionV1);
  encode_config(header_, config_);
  encode_flow_table(header_, flows);
}

void TraceWriter::add(Cycle cycle, FlowId flow) {
  if (records_ > 0 && cycle < last_cycle_) {
    throw TraceError("trace records must be added in nondecreasing cycle order (got " +
                     std::to_string(cycle) + " after " + std::to_string(last_cycle_) + ")");
  }
  if (flow < 0 || flow >= static_cast<FlowId>(flow_count_)) {
    throw TraceError("trace record names flow " + std::to_string(flow) + " but the flow table has " +
                     std::to_string(flow_count_) + " entries");
  }
  put_varint(records_buf_, records_ == 0 ? cycle : cycle - last_cycle_);
  put_varint(records_buf_, static_cast<std::uint64_t>(flow));
  last_cycle_ = cycle;
  records_ += 1;
}

void TraceWriter::add_all(const std::vector<noc::TraceEntry>& entries) {
  for (const auto& e : entries) add(e.cycle, e.flow);
}

std::string TraceWriter::encode() const {
  std::string out = header_;
  put_varint(out, records_);
  out += records_buf_;
  put_u32(out, kTraceEndMagic);
  return out;
}

void TraceWriter::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw TraceError("cannot open '" + path + "' for writing");
  const std::string bytes = encode();
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.flush();
  if (!f) throw TraceError("short write to '" + path + "'");
}

// --- Streaming writer (format v2) --------------------------------------------

namespace {
/// Flush threshold for the pending record chunk; the cap on capture
/// memory. Records are ~2-4 bytes, so one chunk frames a few thousand of
/// them - small enough that a chopped tail loses little, large enough
/// that the length-prefix overhead is noise.
constexpr std::size_t kStreamChunkBytes = 64 * 1024;
}  // namespace

StreamingTraceWriter::StreamingTraceWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary) {
  if (!out_) throw TraceError("cannot open '" + path_ + "' for writing");
  std::string header;
  put_u32(header, kTraceMagic);
  put_u16(header, kTraceVersion);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  check_stream("header");
  chunk_.reserve(kStreamChunkBytes + 16);
}

StreamingTraceWriter::~StreamingTraceWriter() {
  try {
    if (!finished_ && eras_ > 0) finish();
  } catch (...) {
    // Destructor best-effort; call finish() explicitly to observe errors.
  }
}

void StreamingTraceWriter::check_stream(const char* what) {
  if (!out_) {
    throw TraceError(std::string("write error on '") + path_ + "' (" + what + ")");
  }
}

void StreamingTraceWriter::flush_chunk() {
  if (chunk_.empty()) return;
  std::string len;
  put_varint(len, chunk_.size());
  out_.write(len.data(), static_cast<std::streamsize>(len.size()));
  out_.write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  check_stream("record chunk");
  chunk_.clear();
}

void StreamingTraceWriter::begin_era(const NocConfig& config, const noc::FlowSet& flows) {
  if (finished_) throw TraceError("begin_era after finish on '" + path_ + "'");
  if (eras_ > 0) {
    // Close the previous era's record section.
    flush_chunk();
    std::string z;
    put_varint(z, 0);
    out_.write(z.data(), static_cast<std::streamsize>(z.size()));
  }
  std::string section;
  put_u32(section, kTraceEraMagic);
  encode_config(section, config);
  encode_flow_table(section, flows);
  out_.write(section.data(), static_cast<std::streamsize>(section.size()));
  check_stream("era header");
  eras_ += 1;
  flow_count_ = flows.size();
  last_cycle_ = 0;
  era_records_ = 0;
}

void StreamingTraceWriter::add(Cycle cycle, FlowId flow) {
  if (eras_ == 0) throw TraceError("streaming trace record before any begin_era");
  if (finished_) throw TraceError("record added after finish on '" + path_ + "'");
  if (era_records_ > 0 && cycle < last_cycle_) {
    throw TraceError("trace records must be added in nondecreasing cycle order (got " +
                     std::to_string(cycle) + " after " + std::to_string(last_cycle_) + ")");
  }
  if (flow < 0 || flow >= static_cast<FlowId>(flow_count_)) {
    throw TraceError("trace record names flow " + std::to_string(flow) +
                     " but the era's flow table has " + std::to_string(flow_count_) + " entries");
  }
  put_varint(chunk_, era_records_ == 0 ? cycle : cycle - last_cycle_);
  put_varint(chunk_, static_cast<std::uint64_t>(flow));
  last_cycle_ = cycle;
  era_records_ += 1;
  records_ += 1;
  if (chunk_.size() >= kStreamChunkBytes) flush_chunk();
}

void StreamingTraceWriter::finish() {
  if (finished_) return;
  if (eras_ == 0) throw TraceError("streaming trace finished with no era sections");
  flush_chunk();
  std::string tail;
  put_varint(tail, 0);  // end of the final era's records
  put_u32(tail, kTraceEndMagic);
  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out_.flush();
  check_stream("end marker");
  finished_ = true;
}

// --- Reader ------------------------------------------------------------------

namespace {

NocConfig decode_validated_config(Cursor& c) {
  NocConfig cfg = decode_config(c);
  try {
    cfg.validate();
  } catch (const ConfigError& e) {
    throw TraceError(std::string("trace carries an inconsistent config: ") + e.what());
  }
  return cfg;
}

noc::FlowSet decode_flow_table(Cursor& c, const MeshDims& dims) {
  noc::FlowSet flows;
  const std::uint64_t flow_count = c.varint("flow_count");
  // Each flow needs >= 12 bytes; an absurd count is a corrupt header, not
  // an allocation request.
  if (flow_count > c.remaining()) {
    throw TraceError("flow table claims " + std::to_string(flow_count) +
                     " flows but only " + std::to_string(c.remaining()) + " bytes remain");
  }
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    const auto src = static_cast<NodeId>(c.ranged_int("flow src", 0, dims.nodes() - 1));
    const auto dst = static_cast<NodeId>(c.ranged_int("flow dst", 0, dims.nodes() - 1));
    const double bw = c.f64("flow bandwidth");
    // A NaN would even make a capture differ from itself in diff_traces.
    if (!std::isfinite(bw) || bw < 0.0) {
      throw TraceError("flow " + std::to_string(i) + " has bandwidth " + strf("%g", bw) +
                       " MB/s (must be finite and >= 0)");
    }
    const std::uint64_t hops = c.varint("flow hops");
    if (hops == 0 || hops > c.remaining()) {
      throw TraceError("flow " + std::to_string(i) + " has a truncated route");
    }
    noc::RoutePath path;
    path.src = src;
    path.dst = dst;
    NodeId at = src;
    for (std::uint64_t h = 0; h < hops; ++h) {
      const std::uint8_t d = c.byte("route direction");
      if (d >= kNumMeshDirs) {
        throw TraceError("flow " + std::to_string(i) + ": invalid direction byte " +
                         std::to_string(d));
      }
      const Dir dir = dir_from_index(d);
      if (!dims.has_neighbor(at, dir)) {
        throw TraceError("flow " + std::to_string(i) + ": route leaves the mesh at node " +
                         std::to_string(at) + " going " + dir_name(dir));
      }
      at = dims.neighbor(at, dir);
      path.links.push_back(dir);
    }
    if (at != dst) {
      throw TraceError("flow " + std::to_string(i) + ": route ends at node " + std::to_string(at) +
                       ", not its destination " + std::to_string(dst));
    }
    if (src == dst) {
      throw TraceError("flow " + std::to_string(i) + " is a self-flow");
    }
    flows.add(src, dst, bw, std::move(path));
  }
  return flows;
}

/// Accumulates one (delta, flow) record onto `entries`.
void decode_one_record(Cursor& c, std::uint64_t flow_count, Cycle& cycle,
                       std::vector<noc::TraceEntry>& entries) {
  const std::uint64_t i = entries.size();
  const std::uint64_t delta = c.varint("record cycle");
  if (i == 0) {
    cycle = delta;
  } else if (cycle + delta < cycle) {
    throw TraceError("record " + std::to_string(i) + ": cycle overflow");
  } else {
    cycle += delta;
  }
  const std::uint64_t flow = c.varint("record flow");
  if (flow >= flow_count) {
    throw TraceError("record " + std::to_string(i) + " names flow " + std::to_string(flow) +
                     " but the flow table has " + std::to_string(flow_count) + " entries");
  }
  entries.push_back(noc::TraceEntry{cycle, static_cast<FlowId>(flow)});
}

/// v1 records: count-prefixed.
std::vector<noc::TraceEntry> decode_counted_records(Cursor& c, std::uint64_t flow_count) {
  std::vector<noc::TraceEntry> entries;
  const std::uint64_t record_count = c.varint("record_count");
  if (record_count > c.remaining()) {
    throw TraceError("record section claims " + std::to_string(record_count) +
                     " records but only " + std::to_string(c.remaining()) + " bytes remain");
  }
  entries.reserve(record_count);
  Cycle cycle = 0;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    decode_one_record(c, flow_count, cycle, entries);
  }
  return entries;
}

/// v2 records: length-prefixed chunks of whole records, terminated by a
/// zero-length chunk. A record running past its chunk boundary is a
/// malformation (the writer only ever flushes whole records).
std::vector<noc::TraceEntry> decode_chunked_records(Cursor& c, std::uint64_t flow_count) {
  std::vector<noc::TraceEntry> entries;
  Cycle cycle = 0;
  for (;;) {
    const std::uint64_t chunk = c.varint("record chunk length");
    if (chunk == 0) return entries;
    if (chunk > c.remaining()) {
      throw TraceError("record chunk claims " + std::to_string(chunk) + " bytes but only " +
                       std::to_string(c.remaining()) + " remain");
    }
    const std::size_t end = c.pos() + static_cast<std::size_t>(chunk);
    while (c.pos() < end) {
      decode_one_record(c, flow_count, cycle, entries);
    }
    if (c.pos() != end) {
      throw TraceError("record " + std::to_string(entries.size() - 1) +
                       " overruns its chunk boundary");
    }
  }
}

TraceEra decode_era(Cursor& c) {
  TraceEra era;
  era.config = decode_validated_config(c);
  era.flows = decode_flow_table(c, era.config.dims());
  return era;
}

}  // namespace

TraceFile decode_trace(const std::string& bytes) {
  Cursor c(bytes);
  const std::uint32_t magic = c.u32("magic");
  if (magic != kTraceMagic) {
    throw TraceError("not a smartnoc trace (bad magic 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x", magic);
      return std::string(buf);
    }() + ", expected \"SNTR\")");
  }
  const std::uint16_t version = c.u16("version");
  if (version != kTraceVersionV1 && version != kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(version) +
                     " (this build reads versions " + std::to_string(kTraceVersionV1) + " and " +
                     std::to_string(kTraceVersion) + ")");
  }

  TraceFile out;
  out.version = version;
  if (version == kTraceVersionV1) {
    TraceEra era = decode_era(c);
    era.entries = decode_counted_records(c, static_cast<std::uint64_t>(era.flows.size()));
    out.eras.push_back(std::move(era));
    if (c.u32("end magic") != kTraceEndMagic) {
      throw TraceError("missing end marker (file truncated or corrupt)");
    }
  } else {
    for (;;) {
      const std::uint32_t m = c.u32(out.eras.empty() ? "era magic" : "section magic");
      if (m == kTraceEndMagic) break;
      if (m != kTraceEraMagic) {
        throw TraceError("expected an era section (\"ERA!\") or the end marker, got 0x" + [&] {
          char buf[16];
          std::snprintf(buf, sizeof buf, "%08x", m);
          return std::string(buf);
        }());
      }
      TraceEra era = decode_era(c);
      era.entries = decode_chunked_records(c, static_cast<std::uint64_t>(era.flows.size()));
      out.eras.push_back(std::move(era));
    }
    if (out.eras.empty()) {
      throw TraceError("v2 trace has no era sections");
    }
  }
  if (c.remaining() != 0) {
    throw TraceError(std::to_string(c.remaining()) + " trailing bytes after the end marker");
  }
  return out;
}

TraceFile read_trace_file(const std::string& path) {
  std::string bytes;
  try {
    bytes = read_file(path, "trace file");
  } catch (const ConfigError& e) {
    throw TraceError(e.what());  // trace: callers catch the trace error type
  }
  return decode_trace(bytes);
}

TraceDiff diff_traces(const TraceFile& ta, const TraceFile& tb) {
  const TraceEra& a = ta.eras.front();
  const TraceEra& b = tb.eras.front();
  TraceDiff d;
  auto differ = [&d](const std::string& line) {
    d.identical = false;
    d.report += line + "\n";
  };

  // Configuration, field by field (operator== would only say "different").
  auto print = [](std::ostream& os, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_enum_v<T>) os << static_cast<int>(v);
    else if constexpr (std::is_arithmetic_v<T>) os << v;
    else os << format_token(v);
  };
  for_each_config_field(
      [&](const FieldMeta& m, const auto& va, const auto& vb) {
        if (m.member.empty() || va == vb) return;
        std::ostringstream os;
        os << m.member << ": ";
        print(os, va);
        os << " vs ";
        print(os, vb);
        differ(os.str());
      },
      a.config, b.config);

  // Flow tables: count, then the first differing entry.
  if (a.flows.size() != b.flows.size()) {
    differ(strf("flow table: %d flows vs %d flows", a.flows.size(), b.flows.size()));
  }
  const int nflows = std::min(a.flows.size(), b.flows.size());
  for (FlowId i = 0; i < nflows; ++i) {
    const noc::Flow& fa = a.flows.at(i);
    const noc::Flow& fb = b.flows.at(i);
    if (fa.src != fb.src || fa.dst != fb.dst || fa.bandwidth_mbps != fb.bandwidth_mbps ||
        fa.path.links != fb.path.links) {
      differ(strf("flow %d: %s @ %.6g MB/s vs %s @ %.6g MB/s", i, fa.path.str().c_str(),
                  fa.bandwidth_mbps, fb.path.str().c_str(), fb.bandwidth_mbps));
      break;  // one flow-table divergence locates the problem
    }
  }

  // Records: count, then record-by-record up to the first divergence.
  if (a.entries.size() != b.entries.size()) {
    differ(strf("records: %zu vs %zu", a.entries.size(), b.entries.size()));
  }
  const std::size_t nrec = std::min(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < nrec; ++i) {
    if (!(a.entries[i] == b.entries[i])) {
      differ(strf("record %zu: cycle %llu flow %d vs cycle %llu flow %d (first divergence)", i,
                  static_cast<unsigned long long>(a.entries[i].cycle), a.entries[i].flow,
                  static_cast<unsigned long long>(b.entries[i].cycle), b.entries[i].flow));
      break;
    }
  }

  // Later eras (v2 captures): per-era record counts and first divergence.
  // (Era 0 is the comparison above.)
  if (ta.eras.size() != tb.eras.size()) {
    differ(strf("era sections: %zu vs %zu", ta.eras.size(), tb.eras.size()));
  }
  const std::size_t neras = std::min(ta.eras.size(), tb.eras.size());
  for (std::size_t e = 1; e < neras; ++e) {
    const auto& ea = ta.eras[e].entries;
    const auto& eb = tb.eras[e].entries;
    if (ea.size() != eb.size()) {
      differ(strf("era %zu records: %zu vs %zu", e, ea.size(), eb.size()));
    }
    const std::size_t n = std::min(ea.size(), eb.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(ea[i] == eb[i])) {
        differ(strf("era %zu record %zu: cycle %llu flow %d vs cycle %llu flow %d", e, i,
                    static_cast<unsigned long long>(ea[i].cycle), ea[i].flow,
                    static_cast<unsigned long long>(eb[i].cycle), eb[i].flow));
        break;
      }
    }
  }
  return d;
}

std::string summarize_trace(const TraceFile& trace) {
  const TraceEra& era = trace.eras.front();
  const Cycle first = era.entries.empty() ? 0 : era.entries.front().cycle;
  const Cycle last = era.entries.empty() ? 0 : era.entries.back().cycle;
  std::string s = strf(
      "smartnoc trace v%u: %dx%d mesh, %d flows, %zu injections over cycles [%llu, %llu], "
      "%d-bit flits, %d-bit packets, seed %llu\n",
      static_cast<unsigned>(trace.version), era.config.width, era.config.height,
      era.flows.size(), era.entries.size(), static_cast<unsigned long long>(first),
      static_cast<unsigned long long>(last), era.config.flit_bits, era.config.packet_bits,
      static_cast<unsigned long long>(era.config.seed));
  if (trace.eras.size() > 1) {
    s += strf("%zu era sections (cycles are era-local):\n", trace.eras.size());
    for (std::size_t i = 0; i < trace.eras.size(); ++i) {
      const TraceEra& e = trace.eras[i];
      const Cycle ef = e.entries.empty() ? 0 : e.entries.front().cycle;
      const Cycle el = e.entries.empty() ? 0 : e.entries.back().cycle;
      s += strf("  era %zu: %d flows, %zu injections over cycles [%llu, %llu]\n", i,
                e.flows.size(), e.entries.size(), static_cast<unsigned long long>(ef),
                static_cast<unsigned long long>(el));
    }
  }
  return s;
}

}  // namespace smartnoc::telemetry
