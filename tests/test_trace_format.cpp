// Binary packet-trace format: encode/decode round trips, strict typed
// error paths (truncated file, bad magic, version mismatch, garbage
// varint - no crashes, no partial silent reads), a seeded mutation
// campaign over v1 and two-era v2 captures, and the headline
// record -> replay identity: a `trace:<file>` replay of a captured run
// reproduces the live run's RunResult and per-flow stats bit-identically.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "helpers.hpp"
#include "noc/routing.hpp"
#include "sim/runner.hpp"
#include "telemetry/trace_file.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc {
namespace {

using telemetry::decode_trace;
using telemetry::TraceFile;
using telemetry::TraceWriter;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "smartnoc_" + name;
}

NocConfig small_cfg() {
  NocConfig cfg = smartnoc::testing::test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 4000;
  cfg.drain_timeout = 20000;
  return cfg;
}

noc::FlowSet demo_flows(const NocConfig& cfg) {
  noc::FlowSet fs;
  fs.add(0, 5, 400.0, noc::xy_path(cfg.dims(), 0, 5));
  fs.add(12, 3, 123.456, noc::xy_path(cfg.dims(), 12, 3));
  fs.add(7, 6, 50.0, noc::xy_path(cfg.dims(), 7, 6));
  return fs;
}

std::string demo_image() {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  w.add(3, 0);
  w.add(3, 2);
  w.add(10, 1);
  w.add(500000, 0);
  return w.encode();
}

// --- Round trips -------------------------------------------------------------

TEST(TraceFormat, RoundTripPreservesEverything) {
  NocConfig cfg = small_cfg();
  cfg.seed = 0xDEADBEEFCAFEULL;
  cfg.bandwidth_scale = 1.375;
  cfg.hpc_max_override = 7;
  cfg.routing = RoutingPolicy::XY;
  const noc::FlowSet flows = demo_flows(cfg);
  TraceWriter w(cfg, flows);
  const std::vector<noc::TraceEntry> entries = {{1, 2}, {1, 0}, {7, 1}, {7, 1}, {123456789, 2}};
  w.add_all(entries);

  const TraceFile t = decode_trace(w.encode());
  EXPECT_EQ(t.eras[0].config, cfg);
  ASSERT_EQ(t.eras[0].flows.size(), flows.size());
  for (FlowId i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(t.eras[0].flows.at(i).src, flows.at(i).src);
    EXPECT_EQ(t.eras[0].flows.at(i).dst, flows.at(i).dst);
    EXPECT_EQ(t.eras[0].flows.at(i).bandwidth_mbps, flows.at(i).bandwidth_mbps);
    EXPECT_EQ(t.eras[0].flows.at(i).path.links, flows.at(i).path.links);
    EXPECT_EQ(t.eras[0].flows.at(i).route, flows.at(i).route);
  }
  EXPECT_EQ(t.eras[0].entries, entries);
}

TEST(TraceFormat, FileRoundTrip) {
  const std::string path = temp_path("roundtrip.sntr");
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  w.add(42, 1);
  w.write(path);
  const TraceFile t = telemetry::read_trace_file(path);
  EXPECT_EQ(t.eras[0].entries, (std::vector<noc::TraceEntry>{{42, 1}}));
  EXPECT_EQ(t.eras[0].config, cfg);
  std::remove(path.c_str());
}

TEST(TraceFormat, EmptyTraceIsValid) {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  const TraceFile t = decode_trace(w.encode());
  EXPECT_TRUE(t.eras[0].entries.empty());
  EXPECT_EQ(t.eras[0].flows.size(), 3);
}

// --- Writer preconditions ----------------------------------------------------

TEST(TraceFormat, WriterRejectsOutOfOrderCycles) {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  w.add(10, 0);
  EXPECT_THROW(w.add(9, 0), TraceError);
}

TEST(TraceFormat, WriterRejectsUnknownFlow) {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  EXPECT_THROW(w.add(1, 3), TraceError);
  EXPECT_THROW(w.add(1, -1), TraceError);
}

// --- Typed decode errors -----------------------------------------------------

TEST(TraceFormat, TruncatedFileThrowsEverywhere) {
  const std::string image = demo_image();
  // Chopping the image at *any* byte must throw TraceError - never crash,
  // never return a partial trace.
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW(decode_trace(image.substr(0, len)), TraceError) << "prefix length " << len;
  }
  EXPECT_NO_THROW(decode_trace(image));
}

TEST(TraceFormat, BadMagicThrows) {
  std::string image = demo_image();
  image[0] = 'X';
  try {
    decode_trace(image);
    FAIL() << "bad magic must throw";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(TraceFormat, VersionMismatchThrows) {
  std::string image = demo_image();
  image[4] = 99;  // version field
  try {
    decode_trace(image);
    FAIL() << "version mismatch must throw";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(TraceFormat, GarbageVarintThrows) {
  // A varint with 11 continuation bytes can encode nothing.
  std::string image = demo_image().substr(0, 6);  // magic + version
  image += std::string(11, '\xFF');
  EXPECT_THROW(decode_trace(image), TraceError);
  // Non-canonical 10th byte (bits above 2^64).
  std::string image2 = demo_image().substr(0, 6);
  image2 += std::string(9, '\x80');
  image2 += '\x7F';
  EXPECT_THROW(decode_trace(image2), TraceError);
}

TEST(TraceFormat, TrailingGarbageThrows) {
  std::string image = demo_image();
  image += "extra";
  EXPECT_THROW(decode_trace(image), TraceError);
}

TEST(TraceFormat, MissingFileThrows) {
  EXPECT_THROW(telemetry::read_trace_file(temp_path("does_not_exist.sntr")), TraceError);
}

TEST(TraceFormat, NotATraceFileThrows) {
  const std::string path = temp_path("not_a_trace.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("just some text, definitely not SNTR\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(telemetry::read_trace_file(path), TraceError);
  std::remove(path.c_str());
}

// --- Capture diffing (trace_tool diff) ---------------------------------------

TEST(TraceDiff, IdenticalCapturesCompareEqual) {
  const TraceFile a = decode_trace(demo_image());
  const TraceFile b = decode_trace(demo_image());
  const telemetry::TraceDiff d = telemetry::diff_traces(a, b);
  EXPECT_TRUE(d.identical);
  EXPECT_TRUE(d.report.empty()) << d.report;
}

TEST(TraceDiff, ConfigDifferenceIsNamedFieldByField) {
  const TraceFile a = decode_trace(demo_image());
  TraceFile b = decode_trace(demo_image());
  b.eras[0].config.seed += 1;
  b.eras[0].config.vcs_per_port += 1;
  const telemetry::TraceDiff d = telemetry::diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("config.seed"), std::string::npos) << d.report;
  EXPECT_NE(d.report.find("config.vcs_per_port"), std::string::npos) << d.report;
}

TEST(TraceDiff, RecordCountDifferenceIsReported) {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, demo_flows(cfg));
  w.add(3, 0);
  const TraceFile a = decode_trace(demo_image());
  const TraceFile b = decode_trace(w.encode());
  const telemetry::TraceDiff d = telemetry::diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("records: 4 vs 1"), std::string::npos) << d.report;
}

TEST(TraceDiff, FlowTableDifferenceIsReported) {
  const NocConfig cfg = small_cfg();
  noc::FlowSet other = demo_flows(cfg);  // same shape...
  noc::FlowSet changed;
  for (const noc::Flow& f : other) {
    // ...but flow 1 carries a different bandwidth.
    changed.add(f.src, f.dst, f.id == 1 ? f.bandwidth_mbps * 2 : f.bandwidth_mbps, f.path);
  }
  TraceWriter w(cfg, changed);
  w.add(3, 0);
  w.add(3, 2);
  w.add(10, 1);
  w.add(500000, 0);  // identical records: only the flow table diverges
  const telemetry::TraceDiff d =
      telemetry::diff_traces(decode_trace(demo_image()), decode_trace(w.encode()));
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("flow 1:"), std::string::npos) << d.report;
  EXPECT_EQ(d.report.find("record"), std::string::npos)
      << "records are identical; only the flow table should be reported:\n"
      << d.report;
}

TEST(TraceDiff, FirstRecordDivergenceIsLocated) {
  const NocConfig cfg = small_cfg();
  TraceWriter wa(cfg, demo_flows(cfg));
  TraceWriter wb(cfg, demo_flows(cfg));
  wa.add(3, 0);
  wb.add(3, 0);
  wa.add(10, 1);
  wb.add(10, 2);  // diverges here (record 1)
  wa.add(20, 0);
  wb.add(20, 0);
  const telemetry::TraceDiff d =
      telemetry::diff_traces(decode_trace(wa.encode()), decode_trace(wb.encode()));
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("record 1:"), std::string::npos) << d.report;
  EXPECT_NE(d.report.find("first divergence"), std::string::npos) << d.report;
}

// --- trace:<file> workload keys ----------------------------------------------

TEST(TraceWorkload, KeyDetectionAndNormalization) {
  EXPECT_TRUE(telemetry::is_trace_workload_key("trace:foo.sntr"));
  EXPECT_TRUE(telemetry::is_trace_workload_key("TRACE:Foo.sntr"));
  EXPECT_FALSE(telemetry::is_trace_workload_key("transpose"));
  EXPECT_FALSE(telemetry::is_trace_workload_key("tracer"));
  // Paths keep their case; plain workload names are lowercased.
  EXPECT_EQ(sim::normalize_workload_key("TRACE:/Tmp/Cap.SNTR"), "trace:/Tmp/Cap.SNTR");
  EXPECT_EQ(sim::normalize_workload_key("VOPD"), "vopd");
  EXPECT_THROW(telemetry::trace_workload_path("trace:"), ConfigError);
}

TEST(TraceWorkload, RegistryResolvesTraceKeys) {
  auto factory = sim::WorkloadRegistry::instance().find("trace:" + temp_path("missing.sntr"));
  ASSERT_NE(factory, nullptr);
  // The file is read lazily: building flows surfaces the TraceError.
  NocConfig cfg = small_cfg();
  EXPECT_THROW(factory->flows(cfg, 1.0), TraceError);
}

// Faults would reroute the recorded flows (even without dropping any),
// replaying the capture on different presets than the recording - the
// scenario rejects the combination at validate time (Session construction),
// before any cycle runs, instead of silently diverging or failing mid-run.
TEST(TraceWorkload, ReplayUnderFaultsFails) {
  const std::string path = temp_path("faulty_replay.sntr");
  const NocConfig cfg = small_cfg();
  sim::ScenarioSpec live = sim::ScenarioSpec::classic(Design::Smart, "transpose", 0.05, cfg);
  live.telemetry.record_trace = path;
  ASSERT_TRUE(sim::Session(live).run().ok);

  sim::ScenarioSpec replay =
      sim::ScenarioSpec::classic(Design::Smart, "trace:" + path, 1.0, cfg);
  replay.fault_rate = 0.05;
  try {
    sim::Session session(replay);
    FAIL() << "expected ConfigError at construction";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos) << e.what();
  }

  // Online fault events are rejected the same way (and with the same
  // validate-time timing): replay means no fault interference of any kind.
  replay.fault_rate = 0.0;
  replay.fault_events = noc::parse_fault_schedule_token("kill@100:0:E");
  try {
    sim::Session session(replay);
    FAIL() << "expected ConfigError at construction";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceWorkload, MeshMismatchThrows) {
  const std::string path = temp_path("mesh_mismatch.sntr");
  const NocConfig cfg = small_cfg();  // 4x4
  TraceWriter(cfg, demo_flows(cfg)).write(path);
  NocConfig cfg8 = cfg;
  cfg8.width = 8;
  cfg8.height = 8;
  cfg8.fit_derived();
  telemetry::TraceFileFactory factory(path);
  EXPECT_THROW(factory.flows(cfg8, 1.0), ConfigError);
  std::remove(path.c_str());
}

// --- Record -> replay identity (the acceptance pin) --------------------------

struct ReplayCase {
  Design design;
  const char* workload;
  double injection;
};

class RecordReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(RecordReplay, ReplayReproducesLiveRunBitIdentically) {
  const ReplayCase rc = GetParam();
  const std::string path = temp_path(std::string("capture_") + design_name(rc.design) + "_" +
                                     rc.workload + ".sntr");
  const NocConfig cfg = small_cfg();

  // Live run: classic protocol with a recording probe attached.
  sim::ScenarioSpec live = sim::ScenarioSpec::classic(rc.design, rc.workload, rc.injection, cfg);
  live.telemetry.record_trace = path;
  sim::Session live_session(live);
  const sim::SessionResult live_sr = live_session.run();
  ASSERT_TRUE(live_sr.ok) << live_sr.error;
  const sim::RunResult live_run = sim::session_to_run_result(live_sr);
  ASSERT_GT(live_run.packets_delivered, 0u);
  const noc::NetworkStats live_stats = live_session.network().stats();

  // Replay run: same phases, workload = trace:<file>, no probe.
  sim::ScenarioSpec replay =
      sim::ScenarioSpec::classic(rc.design, "trace:" + path, rc.injection, cfg);
  sim::Session replay_session(replay);
  const sim::SessionResult replay_sr = replay_session.run();
  ASSERT_TRUE(replay_sr.ok) << replay_sr.error;
  const sim::RunResult replay_run = sim::session_to_run_result(replay_sr);
  const noc::NetworkStats replay_stats = replay_session.network().stats();

  // RunResult, bit for bit.
  EXPECT_EQ(live_run.warmup_cycles, replay_run.warmup_cycles);
  EXPECT_EQ(live_run.measure_cycles, replay_run.measure_cycles);
  EXPECT_EQ(live_run.drain_cycles, replay_run.drain_cycles);
  EXPECT_EQ(live_run.drained, replay_run.drained);
  EXPECT_EQ(live_run.packets_generated, replay_run.packets_generated);
  EXPECT_EQ(live_run.packets_delivered, replay_run.packets_delivered);
  EXPECT_EQ(live_run.avg_network_latency, replay_run.avg_network_latency);
  EXPECT_EQ(live_run.avg_total_latency, replay_run.avg_total_latency);
  EXPECT_EQ(live_run.p50_network_latency, replay_run.p50_network_latency);
  EXPECT_EQ(live_run.p99_network_latency, replay_run.p99_network_latency);
  EXPECT_EQ(live_run.max_network_latency, replay_run.max_network_latency);
  EXPECT_EQ(live_run.delivered_packets_per_cycle, replay_run.delivered_packets_per_cycle);
  EXPECT_EQ(live_run.activity.buffer_writes, replay_run.activity.buffer_writes);
  EXPECT_EQ(live_run.activity.alloc_grants, replay_run.activity.alloc_grants);
  EXPECT_EQ(live_run.activity.xbar_flit_traversals, replay_run.activity.xbar_flit_traversals);
  EXPECT_EQ(live_run.activity.link_flit_mm, replay_run.activity.link_flit_mm);
  EXPECT_EQ(live_run.activity.link_credit_mm, replay_run.activity.link_credit_mm);
  EXPECT_EQ(live_run.activity.pipeline_latches, replay_run.activity.pipeline_latches);
  EXPECT_EQ(live_run.activity.clocked_inport_cycles, replay_run.activity.clocked_inport_cycles);

  // Per-flow statistics, bit for bit.
  ASSERT_EQ(live_stats.per_flow().size(), replay_stats.per_flow().size());
  for (std::size_t i = 0; i < live_stats.per_flow().size(); ++i) {
    const noc::FlowStats& a = live_stats.per_flow()[i];
    const noc::FlowStats& b = replay_stats.per_flow()[i];
    EXPECT_EQ(a.packets, b.packets) << "flow " << i;
    EXPECT_EQ(a.flits, b.flits) << "flow " << i;
    EXPECT_EQ(a.sum_network_latency, b.sum_network_latency) << "flow " << i;
    EXPECT_EQ(a.sum_total_latency, b.sum_total_latency) << "flow " << i;
    EXPECT_EQ(a.sum_queue_latency, b.sum_queue_latency) << "flow " << i;
    EXPECT_EQ(a.max_network_latency, b.max_network_latency) << "flow " << i;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Matrix, RecordReplay,
                         ::testing::Values(ReplayCase{Design::Smart, "vopd", 1.0},
                                           ReplayCase{Design::Smart, "transpose", 0.05},
                                           ReplayCase{Design::Mesh, "uniform", 0.02},
                                           ReplayCase{Design::Mesh, "wlan", 1.0}),
                         [](const ::testing::TestParamInfo<ReplayCase>& info) {
                           return std::string(design_name(info.param.design)) + "_" +
                                  info.param.workload;
                         });

// A scenario file can name the capture directly: the whole stack (parse ->
// registry -> Session) replays it.
TEST(TraceWorkload, ScenarioFileReplaysCapture) {
  const std::string path = temp_path("scenario_replay.sntr");
  const NocConfig cfg = small_cfg();
  sim::ScenarioSpec live = sim::ScenarioSpec::classic(Design::Smart, "transpose", 0.05, cfg);
  live.telemetry.record_trace = path;
  const sim::SessionResult live_sr = sim::Session(live).run();
  ASSERT_TRUE(live_sr.ok) << live_sr.error;

  sim::ScenarioSpec replay = sim::ScenarioSpec::classic(Design::Smart, "x", 1.0, cfg);
  replay.phases.front().workload = "trace:" + path;
  const std::string text = sim::serialize_scenario_text(replay);
  const sim::ScenarioSpec parsed = sim::parse_scenario(text);
  EXPECT_EQ(parsed.phases.front().workload, "trace:" + path);  // path case survives
  const sim::SessionResult replay_sr = sim::Session(parsed).run();
  ASSERT_TRUE(replay_sr.ok) << replay_sr.error;
  EXPECT_EQ(live_sr.phases.back().packets_delivered, replay_sr.phases.back().packets_delivered);
  EXPECT_EQ(live_sr.phases.back().avg_network_latency,
            replay_sr.phases.back().avg_network_latency);
  std::remove(path.c_str());
}

// --- Format v2 / streaming capture -------------------------------------------

std::string read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(TraceFormatV2, StreamingWriterMultiEraRoundTrip) {
  const std::string path = temp_path("v2_roundtrip.sntr");
  const NocConfig cfg = small_cfg();
  NocConfig cfg2 = cfg;
  cfg2.seed = 77;
  cfg2.bandwidth_scale = 2.5;
  telemetry::StreamingTraceWriter w(path);
  w.begin_era(cfg, demo_flows(cfg));
  w.add(3, 0);
  w.add(10, 1);
  w.begin_era(cfg2, demo_flows(cfg2));
  w.add(0, 2);  // era-local clock restarts: cycle 0 again is legal
  w.add(5, 0);
  w.finish();
  EXPECT_EQ(w.eras(), 2u);
  EXPECT_EQ(w.records(), 4u);

  const TraceFile t = telemetry::read_trace_file(path);
  EXPECT_EQ(t.version, telemetry::kTraceVersion);
  ASSERT_EQ(t.eras.size(), 2u);
  EXPECT_EQ(t.eras[0].entries, (std::vector<noc::TraceEntry>{{3, 0}, {10, 1}}));
  EXPECT_EQ(t.eras[1].entries, (std::vector<noc::TraceEntry>{{0, 2}, {5, 0}}));
  EXPECT_EQ(t.eras[0].config, cfg);
  EXPECT_EQ(t.eras[1].config, cfg2);
  std::remove(path.c_str());
}

TEST(TraceFormatV2, V1FilesStillDecode) {
  // TraceWriter deliberately keeps emitting v1: old captures (and old
  // tooling's output) must stay readable forever.
  const TraceFile t = decode_trace(demo_image());
  EXPECT_EQ(t.version, telemetry::kTraceVersionV1);
  ASSERT_EQ(t.eras.size(), 1u);
  EXPECT_EQ(t.eras[0].config, small_cfg());
  EXPECT_EQ(t.eras[0].entries,
            (std::vector<noc::TraceEntry>{{3, 0}, {3, 2}, {10, 1}, {500000, 0}}));
}

TEST(TraceFormatV2, TruncatedStreamingFileThrowsEverywhere) {
  // The v1 chop sweep, extended to a streaming-written multi-era file: a
  // cut at *any* byte - header, mid-era-section, between chunks, inside
  // the second era's flow table - throws TraceError, never crashes and
  // never yields a partial trace.
  const std::string path = temp_path("v2_chop.sntr");
  const NocConfig cfg = small_cfg();
  telemetry::StreamingTraceWriter w(path);
  w.begin_era(cfg, demo_flows(cfg));
  w.add(3, 0);
  w.add(10, 1);
  w.begin_era(cfg, demo_flows(cfg));
  w.add(2, 2);
  w.finish();
  const std::string image = read_file_bytes(path);
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW(decode_trace(image.substr(0, len)), TraceError) << "prefix length " << len;
  }
  EXPECT_NO_THROW(decode_trace(image));
  std::remove(path.c_str());
}

// The acceptance pin for streaming capture: one recording spans a
// reconfiguration (two eras in one v2 file, written incrementally during
// the run), and each era replays the live run's phase bit-identically.
TEST(TraceFormatV2, MultiEraRecordingReplaysBitIdentically) {
  const std::string path = temp_path("multi_era.sntr");
  const NocConfig cfg = small_cfg();
  sim::ScenarioSpec live;
  live.design = Design::Smart;
  live.config = cfg;
  live.telemetry.record_trace = path;
  sim::PhaseSpec a;
  a.name = "a";
  a.workload = "vopd";
  a.injection = 1.0;
  a.cycles = 2000;
  a.measure = true;
  sim::PhaseSpec b = a;
  b.name = "b";
  b.workload = "wlan";  // workload change => implicit reconfiguration
  live.phases = {a, b};
  sim::Session live_session(live);
  const sim::SessionResult live_sr = live_session.run();
  ASSERT_TRUE(live_sr.ok) << live_sr.error;
  ASSERT_GT(live_sr.phases[0].packets_delivered, 0u);
  ASSERT_GT(live_sr.phases[1].packets_delivered, 0u);

  const TraceFile t = telemetry::read_trace_file(path);
  EXPECT_EQ(t.version, telemetry::kTraceVersion);
  ASSERT_EQ(t.eras.size(), 2u);
  EXPECT_FALSE(t.eras[0].entries.empty());
  EXPECT_FALSE(t.eras[1].entries.empty());

  for (std::size_t e = 0; e < 2; ++e) {
    sim::ScenarioSpec replay;
    replay.design = Design::Smart;
    replay.config = cfg;
    sim::PhaseSpec ph;
    ph.name = "replay";
    ph.workload = "trace:" + path + "@" + std::to_string(e);
    ph.cycles = 2000;
    ph.measure = true;
    replay.phases = {ph};
    const sim::SessionResult rp = sim::Session(replay).run();
    ASSERT_TRUE(rp.ok) << "era " << e << ": " << rp.error;
    const sim::PhaseResult& lp = live_sr.phases[e];
    const sim::PhaseResult& pp = rp.phases[0];
    EXPECT_EQ(lp.packets_delivered, pp.packets_delivered) << "era " << e;
    EXPECT_EQ(lp.avg_network_latency, pp.avg_network_latency) << "era " << e;
    EXPECT_EQ(lp.avg_total_latency, pp.avg_total_latency) << "era " << e;
    EXPECT_EQ(lp.delivered_packets_per_cycle, pp.delivered_packets_per_cycle) << "era " << e;
  }
  std::remove(path.c_str());
}

TEST(TraceWorkload, EraSelectorPicksSection) {
  const std::string path = temp_path("era_select.sntr");
  const NocConfig cfg = small_cfg();
  NocConfig cfg2 = cfg;
  cfg2.seed = 99;
  telemetry::StreamingTraceWriter w(path);
  w.begin_era(cfg, demo_flows(cfg));
  w.add(1, 0);
  noc::FlowSet era1_flows;
  era1_flows.add(2, 9, 250.0, noc::xy_path(cfg.dims(), 2, 9));
  w.begin_era(cfg2, era1_flows);
  w.add(4, 0);
  w.finish();

  telemetry::TraceFileFactory f1(path + "@1");
  EXPECT_EQ(f1.era(), 1u);
  NocConfig got = cfg;
  const noc::FlowSet fs = f1.flows(got, 1.0);
  EXPECT_EQ(got.seed, cfg2.seed);
  ASSERT_EQ(fs.size(), 1);
  EXPECT_EQ(fs.at(0).src, 2);
  EXPECT_EQ(fs.at(0).dst, 9);

  // Out-of-range selector names the section count.
  telemetry::TraceFileFactory f5(path + "@5");
  NocConfig got5 = cfg;
  try {
    f5.flows(got5, 1.0);
    FAIL() << "@5 must be out of range";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
  }

  // No selector = era 0; '@' without a digits suffix stays part of the path.
  telemetry::TraceFileFactory f0(path);
  EXPECT_EQ(f0.era(), 0u);
  telemetry::TraceFileFactory weird("we@ird.sntr");
  EXPECT_EQ(weird.era(), 0u);
  std::remove(path.c_str());
}

// --- Mutation campaign ---------------------------------------------------------

/// `image` with the first little-endian copy of `from` replaced by `to`.
std::string patch_f64(std::string image, double from, double to) {
  const auto le = [](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    std::string out;
    for (int i = 0; i < 8; ++i) out += static_cast<char>(bits >> (8 * i));
    return out;
  };
  const std::size_t at = image.find(le(from));
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) image.replace(at, 8, le(to));
  return image;
}

TEST(TraceFormat, NonFiniteOrNegativeBandwidthThrows) {
  // A NaN bandwidth used to decode, and diff_traces then reported the
  // capture as differing from itself.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(decode_trace(patch_f64(demo_image(), 400.0, bad)), TraceError) << bad;
  }
  EXPECT_NO_THROW(decode_trace(patch_f64(demo_image(), 400.0, 0.0)));
}

// Seed captures carry boundary doubles, so that one flipped bit reaches
// infinity (2^1023: exponent 0x7FE, zero mantissa), NaN (DBL_MAX) or a
// negative value (any sign bit).
constexpr double kTwoTo1023 = 8.98846567431158e307;

noc::FlowSet boundary_flows(const NocConfig& cfg) {
  noc::FlowSet fs;
  fs.add(0, 5, kTwoTo1023, noc::xy_path(cfg.dims(), 0, 5));
  fs.add(12, 3, std::numeric_limits<double>::max(), noc::xy_path(cfg.dims(), 12, 3));
  fs.add(7, 6, 0.0, noc::xy_path(cfg.dims(), 7, 6));
  fs.add(15, 0, 400.0, noc::xy_path(cfg.dims(), 15, 0));
  return fs;
}

/// Decodes `n` mutants of `image`: each must throw TraceError or yield eras
/// whose records are cycle-sorted and name flows of their era's table, with
/// every double finite and every bandwidth >= 0. Returns how many decoded.
int run_trace_campaign(const std::string& image, std::uint64_t seed, int n) {
  constexpr std::string_view kTraceBytes{"\x00\x01\x7f\x80\xff" "SNTRERA!TEND", 17};
  Xoshiro256 rng(seed);
  int decoded = 0;
  for (int i = 0; i < n; ++i) {
    const std::string mutant = testing::mutate(image, rng, kTraceBytes);
    TraceFile t;
    try {
      t = decode_trace(mutant);
    } catch (const TraceError&) {
      continue;  // a typed refusal is a pass
    }
    ++decoded;
    EXPECT_FALSE(t.eras.empty()) << "mutant " << i;
    for (const telemetry::TraceEra& era : t.eras) {
      const NocConfig& c = era.config;
      EXPECT_TRUE(std::isfinite(c.freq_ghz) && std::isfinite(c.hop_mm) &&
                  std::isfinite(c.bandwidth_scale))
          << "mutant " << i << ": hop_mm " << c.hop_mm << ", bandwidth_scale "
          << c.bandwidth_scale;
      for (const noc::Flow& f : era.flows) {
        EXPECT_TRUE(std::isfinite(f.bandwidth_mbps) && f.bandwidth_mbps >= 0.0)
            << "mutant " << i << ": flow " << f.id << " bandwidth " << f.bandwidth_mbps;
      }
      for (std::size_t k = 0; k < era.entries.size(); ++k) {
        const noc::TraceEntry& e = era.entries[k];
        EXPECT_TRUE(e.flow >= 0 && e.flow < era.flows.size()) << "mutant " << i;
        if (k > 0) {
          EXPECT_LE(era.entries[k - 1].cycle, e.cycle) << "mutant " << i;
        }
      }
    }
    EXPECT_TRUE(telemetry::diff_traces(t, t).identical) << "mutant " << i;
  }
  return decoded;
}

TEST(TraceMutation, V1MutantsThrowOrDecodeSound) {
  const NocConfig cfg = small_cfg();
  TraceWriter w(cfg, boundary_flows(cfg));
  w.add_all({{3, 0}, {3, 2}, {10, 1}, {11, 3}, {500000, 0}});
  const int decoded = run_trace_campaign(w.encode(), 0x5EED0001, 2000);
  EXPECT_GT(decoded, 100) << "the campaign must get past the header";
}

TEST(TraceMutation, TwoEraV2MutantsThrowOrDecodeSound) {
  const std::string path = temp_path("v2_mutation.sntr");
  NocConfig cfg = small_cfg();
  cfg.hop_mm = kTwoTo1023;
  NocConfig cfg2 = small_cfg();
  cfg2.bandwidth_scale = kTwoTo1023;
  {
    telemetry::StreamingTraceWriter w(path);
    w.begin_era(cfg, boundary_flows(cfg));
    w.add(3, 0);
    w.add(10, 3);
    w.begin_era(cfg2, boundary_flows(cfg2));
    w.add(0, 2);
    w.add(7, 1);
    w.finish();
  }
  const std::string image = read_file_bytes(path);
  std::remove(path.c_str());
  ASSERT_EQ(decode_trace(image).eras.size(), 2u);
  const int decoded = run_trace_campaign(image, 0x5EED0002, 2000);
  EXPECT_GT(decoded, 100) << "the campaign must get past the header";
}

}  // namespace
}  // namespace smartnoc
