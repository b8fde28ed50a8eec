// Serving subsystem: golden hash vectors (the on-disk key format), point-key
// sensitivity, shortest-round-trip float serialization, cache hit/miss
// bit-identity across thread counts, corruption recovery, and job-queue
// resume semantics (only missing points rerun).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>
#include <type_traits>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/float_io.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "explore/explore.hpp"
#include "helpers.hpp"
#include "serve/checked_lines.hpp"
#include "serve/job_store.hpp"
#include "serve/point_key.hpp"
#include "serve/result_cache.hpp"
#include "serve/serve.hpp"
#include "sim/session.hpp"

namespace smartnoc {
namespace {

namespace fs = std::filesystem;

using explore::ResultTable;
using explore::RunRecord;
using explore::SweepSpec;

/// Fresh (pre-wiped) scratch directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("smartnoc_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// 4 fast points: 2x2 mesh, two injections, both shared-fabric designs.
std::string sweep_text() {
  return "mesh = 2x2\n"
         "injection = 0.02, 0.05\n"
         "design = mesh, smart\n"
         "warmup = 200\n"
         "measure = 2000\n"
         "drain_timeout = 20000\n";
}

SweepSpec serve_spec() { return explore::parse_sweep(sweep_text()); }

// --- Golden vectors ----------------------------------------------------------
// These constants pin the persisted key format. If one of these fails, the
// hash or the canonical layout changed: old caches would silently alias or
// miss. Bump serve::kPointKeyVersion with any intentional change.

TEST(ServeHash, Fnv1a64GoldenVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);  // the FNV offset basis
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bULL);  // published FNV-1a vector
  EXPECT_EQ(fnv1a64("hello", kHash128LoSalt), 0xd80e69ef89515aa8ULL);
}

TEST(ServeHash, Hash128GoldenVector) {
  EXPECT_EQ(hash128("smartnoc").hex(), "73922481cad5bfe6b1dbad0a24c585cf");
  const Hash128 lanes{fnv1a64(""), fnv1a64("", kHash128LoSalt)};
  EXPECT_EQ(hash128("").hex(), lanes.hex());
  EXPECT_NE(hash128("a").hi, hash128("a").lo) << "lanes must be independent";
}

TEST(ServeHash, Hash128EqualsTwoSaltedLanes) {
  // hash128 runs both lanes in one loop; it must equal the two separate
  // salted passes byte for byte, at every length and alignment.
  Xoshiro256 rng(20260418);
  std::string bytes;
  for (std::size_t len = 0; len <= 2048; ++len) {
    const Hash128 h = hash128(bytes);
    ASSERT_EQ(h.hi, fnv1a64(bytes, 0)) << "len=" << len;
    ASSERT_EQ(h.lo, fnv1a64(bytes, kHash128LoSalt)) << "len=" << len;
    bytes += static_cast<char>(rng.next() & 0xff);
  }
}

TEST(ServeHash, CanonicalEncoderLayout) {
  CanonicalEncoder e;
  e.u8(0xab);
  e.u32(0x01020304);
  e.u64(1);
  e.i64(-1);
  e.f64(-0.0);
  e.str("hi");
  const std::string b = e.out();
  ASSERT_EQ(b.size(), 1u + 4u + 8u + 8u + 8u + 4u + 2u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xab);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x04);  // little-endian
  EXPECT_EQ(static_cast<unsigned char>(b[4]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[5]), 0x01);  // u64(1)
  EXPECT_EQ(static_cast<unsigned char>(b[13]), 0xff);  // i64(-1) two's complement
  EXPECT_EQ(static_cast<unsigned char>(b[28]), 0x80);  // -0.0 sign bit, top byte
  EXPECT_EQ(b.substr(33), "hi");
}

TEST(ServePointKey, GoldenVector) {
  const SweepSpec spec = explore::parse_sweep(
      "mesh = 4x4\n"
      "injection = 0.05\n"
      "design = smart\n"
      "warmup = 200\n"
      "measure = 2000\n"
      "drain_timeout = 20000\n"
      "seed = 7\n");
  const auto pts = spec.expand();
  const sim::ScenarioSpec sc = explore::make_point_scenario(spec, pts.at(0));
  EXPECT_EQ(serve::canonical_point_bytes(sc).size(), 313u);
  EXPECT_EQ(serve::point_key(sc).hex(), "2b9b7b84b21d7913a4be3b27f9b39e54");
}

TEST(ServePointKey, SensitiveToResultRelevantFieldsOnly) {
  const auto key_of = [](const SweepSpec& spec) {
    const auto pts = spec.expand();
    return serve::point_key(explore::make_point_scenario(spec, pts.at(0))).hex();
  };
  const SweepSpec base = serve_spec();
  const std::string k0 = key_of(base);
  const auto with = [&](const std::string& key, const std::string& values) {
    SweepSpec spec = base;
    bool workloads_replaced = false;
    explore::apply_sweep_key(spec, key, values, workloads_replaced);
    return spec;
  };

  SweepSpec changed = base;
  changed.base_seed = 99;
  EXPECT_NE(key_of(changed), k0) << "seed must change the key";

  EXPECT_NE(key_of(with("design", "smart")), k0) << "design must change the key";
  EXPECT_NE(key_of(with("injection", "0.07")), k0) << "injection must change the key";
  EXPECT_NE(key_of(with("pattern", "transpose")), k0) << "workload must change the key";
  EXPECT_NE(key_of(with("fault_schedule", "kill@500:1:E")), k0)
      << "fault schedule must change the key";
  EXPECT_NE(key_of(with("measure", "4000")), k0) << "measurement window must change the key";

  // Telemetry sidecars cannot change a RunRecord (the probe is gated
  // non-intrusive), so they share the cache entry.
  changed = base;
  changed.telemetry_prefix = "somewhere/probe";
  changed.trace_prefix = "somewhere/trace";
  EXPECT_EQ(key_of(changed), k0) << "telemetry must not change the key";
}

/// Perturbs row `row` of the scenario (or, with `phase`, of its first
/// phase) to a different value; returns its meta, or nullopt past the last
/// row. View rows (no member name) alias other rows and are left alone.
std::optional<FieldMeta> perturb_row(sim::ScenarioSpec& s, int row, bool phase) {
  std::optional<FieldMeta> hit;
  int i = 0;
  auto perturb = [&](const FieldMeta& m, auto&& v) {
    if (i++ != row) return;
    hit = m;
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) v = !v;
    else if constexpr (std::is_enum_v<T>) v = static_cast<T>(static_cast<std::uint8_t>(v) ^ 1);
    else if constexpr (std::is_arithmetic_v<T>) v += 1;
    else if constexpr (std::is_same_v<T, std::string>) v += "x";
  };
  if (phase) sim::for_each_phase_field(perturb, s.phases.front());
  else sim::for_each_field(perturb, s);
  return hit;
}

TEST(ServePointKey, EveryInKeyRowChangesTheKeyAndNoExcludedRowDoes) {
  SweepSpec spec = serve_spec();
  const sim::ScenarioSpec base = explore::make_point_scenario(spec, spec.expand().at(0));
  const std::string k0 = serve::point_key(base).hex();
  for (const bool phase : {false, true}) {
    int rows = 0;
    for (int row = 0;; ++row) {
      sim::ScenarioSpec s = base;
      const std::optional<FieldMeta> m = perturb_row(s, row, phase);
      if (!m) break;
      if (m->member.empty()) continue;
      ++rows;
      ASSERT_FALSE(s == base) << m->member << " was not perturbed";
      if (m->in_point_key) {
        EXPECT_NE(serve::point_key(s).hex(), k0) << m->member << " must change the key";
      } else {
        EXPECT_EQ(serve::point_key(s).hex(), k0) << m->member << " must not change the key";
      }
    }
    EXPECT_GT(rows, phase ? 8 : 30);
  }
}

TEST(ServePointKey, ExampleScenarioKeysArePinned) {
  const std::tuple<const char*, std::size_t, const char*> pinned[] = {
      {"appswitch.scn", 343, "7b89c0021f854d6f1456b7ecf462167c"},
      {"faultstorm.scn", 391, "c2e41b9e59f6839d301ac280e0c15bae"},
      {"watchdog_trip.scn", 339, "1c16343761a6163b5d63b6bad5967a00"},
  };
  for (const auto& [file, size, hex] : pinned) {
    const sim::ScenarioSpec sc =
        sim::parse_scenario(slurp(fs::path(SMARTNOC_SOURCE_DIR) / "examples" / file));
    EXPECT_EQ(serve::canonical_point_bytes(sc).size(), size) << file;
    EXPECT_EQ(serve::point_key(sc).hex(), hex) << file;
  }
}

// --- Shortest-round-trip floats ---------------------------------------------

TEST(ServeFloatIo, FormatParseIsBitExact) {
  const double values[] = {0.0,     -0.0,   0.1,       1.0 / 3.0, 1e-300, 5e-324,
                           1e308,   -2.5e9, 123456789.123456789,  3.0,    0.30000000000000004};
  for (const double v : values) {
    const std::string s = format_double_rt(v);
    const double back = parse_double_rt(s, "test");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << "value " << s << " did not round-trip bit-exactly";
  }
  EXPECT_EQ(format_double_rt(-0.0), "-0");  // sign survives
  EXPECT_EQ(format_double_rt(0.25), "0.25");
}

TEST(ServeFloatIo, ParseRejectsGarbage) {
  EXPECT_THROW(parse_double_rt("", "t"), ConfigError);
  EXPECT_THROW(parse_double_rt("abc", "t"), ConfigError);
  EXPECT_THROW(parse_double_rt("1.5x", "t"), ConfigError);  // trailing junk
  EXPECT_THROW(parse_double_rt("1.2.3", "t"), ConfigError);
}

TEST(ServeFloatIo, RecordJsonRoundTripIsExact) {
  RunRecord rec;
  rec.index = 42;
  rec.width = 4;
  rec.height = 4;
  rec.flit_bits = 32;
  rec.hpc_max = 8;
  rec.injection = 0.1;  // not exactly representable
  rec.workload = "scenario:a \"quoted\" path";
  rec.fault_schedule = "kill@2000:5:E";
  rec.design = "SMART";
  rec.seed = 0xdeadbeefcafef00dULL;
  rec.ok = true;
  rec.flows = 12;
  rec.packets = 1234;
  rec.avg_net_latency = 1.0 / 3.0;
  rec.p99_latency = 17.000000000000004;
  rec.throughput_ppc = 5e-324;  // smallest denormal
  rec.power_mw = 3.842384;
  rec.packets_retransmitted = 7;
  const RunRecord back = explore::record_from_json(explore::record_to_json(rec));
  EXPECT_EQ(back, rec);
}

TEST(ServeFloatIo, RecordColumnsArePinned) {
  // Every column away from its default: the CSV row and the JSON record
  // are durable (results.csv, results.srcl, progress.srcl).
  RunRecord rec;
  rec.index = 17;
  rec.width = 8;
  rec.height = 4;
  rec.flit_bits = 64;
  rec.hpc_max = 5;
  rec.injection = 0.05;
  rec.workload = "scenario:a \"b\",c";
  rec.fault_rate = 0.01;
  rec.fault_schedule = "kill@2000:5:E";
  rec.design = "Mesh";
  rec.seed = 0xdeadbeefcafef00dULL;
  rec.ok = true;
  rec.error = "line1\nline2";
  rec.flows = 12;
  rec.dropped_flows = 2;
  rec.packets = 1234;
  rec.avg_net_latency = 1.0 / 3.0;
  rec.avg_total_latency = 2.5;
  rec.p50_latency = 7;
  rec.p99_latency = 17.000000000000004;
  rec.max_latency = 40;
  rec.throughput_ppc = 5e-324;
  rec.power_mw = 3.842384;
  rec.area_mm2 = 0.125;
  rec.packets_offered = 2000;
  rec.packets_dropped = 3;
  rec.packets_retransmitted = 7;
  rec.flows_rerouted = 4;
  rec.flows_failed = 1;
  ResultTable table;
  table.add(rec);
  EXPECT_EQ(table.to_csv(),
            "index,width,height,flit_bits,hpc_max,injection,workload,fault_rate,fault_schedule,"
            "design,seed,ok,error,flows,dropped_flows,packets,avg_net_latency,avg_total_latency,"
            "p50_latency,p99_latency,max_latency,throughput_ppc,power_mw,area_mm2,"
            "packets_offered,packets_dropped,packets_retransmitted,flows_rerouted,flows_failed\n"
            "17,8,4,64,5,0.05,\"scenario:a \"\"b\"\",c\",0.01,\"kill@2000:5:E\",\"Mesh\","
            "16045690984503111693,1,\"line1\nline2\",12,2,1234,0.3333333333333333,2.5,7,"
            "17.000000000000004,40,5e-324,3.842384,0.125,2000,3,7,4,1\n");
  EXPECT_EQ(explore::record_to_json(rec),
            "{\"index\": 17, \"width\": 8, \"height\": 4, \"flit_bits\": 64, \"hpc_max\": 5, "
            "\"injection\": 0.05, \"workload\": \"scenario:a \\\"b\\\",c\", \"fault_rate\": 0.01, "
            "\"fault_schedule\": \"kill@2000:5:E\", \"design\": \"Mesh\", "
            "\"seed\": 16045690984503111693, \"ok\": true, \"error\": \"line1\\nline2\", "
            "\"flows\": 12, \"dropped_flows\": 2, \"packets\": 1234, "
            "\"avg_net_latency\": 0.3333333333333333, \"avg_total_latency\": 2.5, "
            "\"p50_latency\": 7, \"p99_latency\": 17.000000000000004, \"max_latency\": 40, "
            "\"throughput_ppc\": 5e-324, \"power_mw\": 3.842384, \"area_mm2\": 0.125, "
            "\"packets_offered\": 2000, \"packets_dropped\": 3, \"packets_retransmitted\": 7, "
            "\"flows_rerouted\": 4, \"flows_failed\": 1}");
  EXPECT_EQ(ResultTable::from_csv(table.to_csv()).at(0), rec);
  EXPECT_EQ(explore::record_from_json(explore::record_to_json(rec)), rec);
}

// --- Result cache ------------------------------------------------------------

TEST(ServeCache, ColdThenWarmIsBitIdenticalAcrossThreadCounts) {
  const fs::path dir = scratch_dir("cache_warm");
  const SweepSpec spec = serve_spec();

  serve::ResultCache cold(dir.string());
  const ResultTable a = explore::run_sweep(spec, 1, {}, serve::cache_hooks(cold));
  EXPECT_EQ(cold.counters().hits, 0u);
  EXPECT_EQ(cold.counters().inserts, spec.size());

  for (const int threads : {1, 4}) {
    serve::ResultCache warm(dir.string());  // re-open: exercises the load path
    const ResultTable b = explore::run_sweep(spec, threads, {}, serve::cache_hooks(warm));
    EXPECT_EQ(warm.counters().hits, spec.size()) << "threads=" << threads;
    EXPECT_EQ(warm.counters().misses, 0u);
    EXPECT_EQ(b.to_csv(), a.to_csv()) << "served table must be byte-identical";
    EXPECT_EQ(b.to_json(), a.to_json());
  }
}

TEST(ServeCache, UncachedAndCachedSweepsAgree) {
  const fs::path dir = scratch_dir("cache_agree");
  const SweepSpec spec = serve_spec();
  const ResultTable plain = explore::run_sweep(spec, 2);
  serve::ResultCache cache(dir.string());
  const ResultTable cached = explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  const ResultTable served = explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  EXPECT_EQ(cached.to_csv(), plain.to_csv());
  EXPECT_EQ(served.to_csv(), plain.to_csv());
}

TEST(ServeCache, CorruptAndTruncatedEntriesAreDroppedAndRecomputed) {
  const fs::path dir = scratch_dir("cache_corrupt");
  const SweepSpec spec = serve_spec();
  {
    serve::ResultCache cache(dir.string());
    explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  }
  const fs::path file = dir / "results.srcl";
  std::string bytes = slurp(file);

  // Flip one byte inside the payload of the second entry and chop the last
  // line mid-record (a crash mid-append).
  std::vector<std::size_t> starts;
  for (std::size_t pos = bytes.find('\n'); pos != std::string::npos; pos = bytes.find('\n', pos + 1)) {
    if (pos + 1 < bytes.size()) starts.push_back(pos + 1);
  }
  ASSERT_GE(starts.size(), 4u);
  bytes[starts[1] + 60] ^= 0x20;
  bytes.resize(starts.back() + 25);
  {
    std::ofstream f(file, std::ios::binary | std::ios::trunc);
    f << bytes;
  }

  serve::ResultCache cache(dir.string());
  EXPECT_EQ(cache.counters().corrupt_dropped, 2u);
  EXPECT_EQ(cache.size(), spec.size() - 2);

  // The damaged points miss, recompute, and the table is still exact.
  const ResultTable again = explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  EXPECT_EQ(cache.counters().hits, spec.size() - 2);
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.counters().inserts, 2u);
  EXPECT_EQ(again.to_csv(), explore::run_sweep(spec, 1).to_csv());

  // And the repaired file serves everything on the next open.
  serve::ResultCache repaired(dir.string());
  EXPECT_EQ(repaired.size(), spec.size());
  EXPECT_EQ(repaired.counters().corrupt_dropped, 0u);
}

TEST(ServeCache, ChecksumValidButUnparsableRecordMissesOnceAndIsReplaced) {
  const fs::path dir = scratch_dir("cache_unparsable");
  const SweepSpec spec = serve_spec();
  {
    serve::ResultCache cache(dir.string());
    explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  }
  // Re-store the first entry's key over bytes that are not a record, under
  // a correct checksum: the line verifies, so open keeps it (last wins).
  const fs::path file = dir / "results.srcl";
  const std::string bytes = slurp(file);
  const std::size_t first = bytes.find('\n') + 1;
  const std::string key_hex = bytes.substr(first, 32);
  const std::string junk = "not a record {";
  {
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f << key_hex << ' ' << strf("%016llx", static_cast<unsigned long long>(fnv1a64(junk)))
      << ' ' << junk << '\n';
  }
  const Hash128 key = *Hash128::from_hex(key_hex);

  serve::ResultCache cache(dir.string());
  EXPECT_EQ(cache.size(), spec.size()) << "open verifies checksums, it does not decode";
  EXPECT_EQ(cache.counters().corrupt_dropped, 0u);

  // The first lookup decodes, fails, drops the entry: a miss, counted once.
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.counters().corrupt_dropped, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.size(), spec.size() - 1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.counters().corrupt_dropped, 1u) << "dropped once, not per lookup";

  // The sweep recomputes that one point, appends it, and stays exact.
  const ResultTable again = explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  EXPECT_EQ(cache.counters().hits, spec.size() - 1);
  EXPECT_EQ(cache.counters().misses, 3u);
  EXPECT_EQ(cache.counters().inserts, 1u);
  EXPECT_EQ(again.to_csv(), explore::run_sweep(spec, 1).to_csv());

  // Last wins on the next load: the fresh line is served, nothing dropped.
  serve::ResultCache reopened(dir.string());
  EXPECT_EQ(reopened.counters().corrupt_dropped, 0u);
  EXPECT_EQ(reopened.size(), spec.size());
  const ResultTable served = explore::run_sweep(spec, 2, {}, serve::cache_hooks(reopened));
  EXPECT_EQ(reopened.counters().hits, spec.size());
  EXPECT_EQ(reopened.counters().misses, 0u);
  EXPECT_EQ(served.to_csv(), again.to_csv());
}

TEST(ServeCache, ConcurrentLookupsCountEveryHitMissAndDropOnce) {
  constexpr std::size_t kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  const fs::path dir = scratch_dir("cache_concurrent");
  std::vector<Hash128> keys;
  {
    serve::ResultCache cache(dir.string());
    for (std::size_t k = 0; k < kKeys; ++k) {
      keys.push_back(Hash128{0x5eedULL, k + 1});
      RunRecord rec;
      rec.design = "SMART";
      rec.ok = true;
      rec.packets = 100 + k;
      rec.avg_net_latency = 1.0 / static_cast<double>(k + 3);
      cache.insert(keys.back(), rec);
    }
  }
  // One key's line is re-stored under a correct checksum over bytes that are
  // not a record (last wins at open): its first decode fails.
  const Hash128 junk_key = keys[kKeys / 2];
  const std::string junk = "{\"packets\": }";
  {
    std::ofstream f(dir / "results.srcl", std::ios::binary | std::ios::app);
    f << serve::format_checked_line(junk_key.hex(), junk);
  }

  serve::ResultCache cache(dir.string());
  ASSERT_EQ(cache.size(), kKeys);
  const double hits0 = testing::sum_family("smartnoc_cache_hits_total");
  const double misses0 = testing::sum_family("smartnoc_cache_misses_total");
  const double dropped0 = testing::sum_family("smartnoc_cache_corrupt_dropped_total");
  const serve::ResultCache::Counters before = cache.counters();

  std::atomic<std::uint64_t> served{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kKeys; ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t) * 17) % kKeys;
          const std::optional<RunRecord> rec = cache.lookup(keys[k]);
          if (!rec) continue;
          served.fetch_add(1);
          if (rec->packets != 100 + k) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const serve::ResultCache::Counters after = cache.counters();
  const std::uint64_t lookups = static_cast<std::uint64_t>(kThreads) * kRounds * kKeys;
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  EXPECT_EQ(hits + misses, lookups);
  EXPECT_EQ(hits, served.load());
  EXPECT_EQ(misses, static_cast<std::uint64_t>(kThreads) * kRounds) << "the junk key misses";
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(after.corrupt_dropped - before.corrupt_dropped, 1u) << "dropped once, not per lookup";
  EXPECT_EQ(cache.size(), kKeys - 1);

  // The registry mirrors the instance counters exactly.
  EXPECT_EQ(testing::sum_family("smartnoc_cache_hits_total") - hits0, static_cast<double>(hits));
  EXPECT_EQ(testing::sum_family("smartnoc_cache_misses_total") - misses0,
            static_cast<double>(misses));
  EXPECT_EQ(testing::sum_family("smartnoc_cache_corrupt_dropped_total") - dropped0, 1.0);
}

TEST(ServeCache, LaneVerifyMatchesAPerLineReference) {
  // 23 lines: five groups of four and a tail of three, so both the
  // four-lane verify and the one-line tail run. Payloads have unequal
  // lengths (0 and 1 byte among them), a damaged line sits at each
  // position mod 4, the last line is cut off partway and one key repeats.
  const fs::path dir = scratch_dir("cache_lanes");
  struct Line {
    std::string tag, payload;
    std::uint64_t sum = 0;
  };
  std::vector<Line> lines;
  for (std::size_t i = 0; i < 23; ++i) {
    std::string payload;
    if (i == 2) {
      payload = "";
    } else if (i == 5 || i == 15) {
      payload = "x";
    } else {
      RunRecord r;
      r.packets = i;
      r.workload = std::string(i % 7, 'w');
      payload = explore::record_to_json(r);
    }
    const std::size_t key = i == 20 ? 3 : i;  // line 20 repeats line 3's key
    lines.push_back({hash128("key" + std::to_string(key)).hex(), payload, fnv1a64(payload)});
  }
  lines[8].payload[10] ^= 0x01;  // position 8 = 0 mod 4: payload byte
  lines[13].sum ^= 1;            // 1 mod 4: checksum
  lines[18].payload[40] ^= 0x20; // 2 mod 4: payload byte
  lines[15].sum ^= 2;            // 3 mod 4: a 1-byte payload's checksum
  std::string file = std::string(serve::ResultCache::kHeader) + "\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string text = lines[i].tag + ' ' +
                             strf("%016llx", static_cast<unsigned long long>(lines[i].sum)) +
                             ' ' + lines[i].payload;
    if (i + 1 < lines.size()) {
      file += text + '\n';
    } else {
      lines[i].payload.resize(lines[i].payload.size() - 5);  // cut mid-payload, no newline
      file += text.substr(0, text.size() - 5);
    }
  }
  {
    std::ofstream f(dir / "results.srcl", std::ios::binary | std::ios::trunc);
    f << file;
  }

  // The reference: a line holds iff its own fnv1a64 matches its checksum.
  std::vector<std::pair<std::string, std::string>> kept;
  std::map<std::string, std::string> last;  // key -> last verified payload
  std::uint64_t dropped = 0;
  for (const Line& l : lines) {
    if (fnv1a64(l.payload) != l.sum) {
      ++dropped;
      continue;
    }
    kept.emplace_back(l.tag, l.payload);
    last[l.tag] = l.payload;
  }
  ASSERT_EQ(dropped, 5u);

  const serve::CheckedFile read =
      serve::read_checked_lines((dir / "results.srcl").string(), serve::ResultCache::kHeader);
  EXPECT_TRUE(read.header_ok);
  EXPECT_EQ(read.dropped, dropped);
  ASSERT_EQ(read.lines.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(read.lines[i].tag, kept[i].first) << "line " << i;
    EXPECT_EQ(read.lines[i].payload, kept[i].second) << "line " << i;
  }

  // The cache serves each key's last verified line, when it decodes.
  serve::ResultCache cache(dir.string());
  EXPECT_EQ(cache.counters().corrupt_dropped, dropped);
  EXPECT_EQ(cache.size(), last.size());
  for (const Line& l : lines) {
    const auto hit = cache.lookup(*Hash128::from_hex(l.tag));
    const auto it = last.find(l.tag);
    std::optional<RunRecord> want;
    if (it != last.end() && !it->second.empty() && it->second != "x") {
      want = explore::record_from_json(it->second);
    }
    EXPECT_EQ(hit, want) << l.tag;
  }
}

TEST(ServeCache, OneHooksObjectServesConsecutiveSweepsOfDifferentSizes) {
  // As a bench pass does: one hooks object over two run_sweep calls whose
  // point indices overlap, at different worker counts.
  const fs::path dir = scratch_dir("cache_reuse");
  const SweepSpec small = serve_spec();
  const SweepSpec large = explore::parse_sweep(
      "mesh = 2x2, 3x3\n"
      "injection = 0.02, 0.03, 0.05\n"
      "design = smart, mesh\n"
      "warmup = 200\n"
      "measure = 2000\n"
      "drain_timeout = 20000\n");
  serve::ResultCache cache(dir.string());
  const explore::SweepHooks hooks = serve::cache_hooks(cache);
  const ResultTable a = explore::run_sweep(large, 3, {}, hooks);
  const ResultTable b = explore::run_sweep(small, 2, {}, hooks);
  EXPECT_EQ(cache.counters().inserts, large.size() + small.size());

  // Every computed record sits under its own point's key.
  serve::ResultCache reopened(dir.string());
  for (const auto& [spec, table] : {std::pair{&large, &a}, std::pair{&small, &b}}) {
    for (const explore::RunPoint& pt : spec->expand()) {
      const auto hit =
          reopened.lookup(serve::point_key(explore::make_point_scenario(*spec, pt)));
      ASSERT_TRUE(hit.has_value()) << "point " << pt.index;
      RunRecord want = table->at(pt.index);
      want.index = 0;
      EXPECT_EQ(*hit, want) << "point " << pt.index;
    }
  }

  // A rerun through the same hooks object is served whole.
  const serve::ResultCache::Counters before = cache.counters();
  EXPECT_EQ(explore::run_sweep(small, 3, {}, hooks).to_csv(), b.to_csv());
  EXPECT_EQ(explore::run_sweep(large, 2, {}, hooks).to_csv(), a.to_csv());
  EXPECT_EQ(cache.counters().hits - before.hits, large.size() + small.size());
  EXPECT_EQ(cache.counters().misses, before.misses);
}

TEST(ServeCache, HooksResolveASpecChangedBetweenSweepsAfresh) {
  // The calling thread is lane 0 of every sweep, so its cursor must not
  // carry over: the same spec object, changed in place, resolves anew.
  const fs::path dir = scratch_dir("cache_changed_spec");
  SweepSpec spec = serve_spec();
  serve::ResultCache cache(dir.string());
  const explore::SweepHooks hooks = serve::cache_hooks(cache);
  explore::run_sweep(spec, 1, {}, hooks);
  ASSERT_EQ(spec.axes.front().key, "mesh");
  spec.axes.front().values = {"3x3"};
  EXPECT_EQ(explore::run_sweep(spec, 1, {}, hooks).to_csv(), explore::run_sweep(spec, 1).to_csv());
  EXPECT_EQ(cache.counters().hits, 0u);
}

TEST(ServeCache, EightAxisSweepIsServedWholeAtEveryWorkerCount) {
  // Every axis key at uneven radices: the hooks fold each lane's points, and
  // a folded scenario that differed from a fresh one would miss or echo
  // wrong columns.
  const fs::path dir = scratch_dir("cache_eight_axes");
  const SweepSpec spec = explore::parse_sweep(
      "mesh = 2x2, 3x3\n"
      "flit_bits = 32, 64\n"
      "hpc = 0, 2\n"
      "injection = 0.02, 0.04, 0.06\n"
      "pattern = transpose, neighbor\n"
      "fault_rate = 0, 0.05\n"
      "fault_schedule = none, kill@300:0:E\n"
      "design = mesh, smart\n"
      "warmup = 100\n"
      "measure = 400\n"
      "drain_timeout = 5000\n");
  ASSERT_EQ(spec.axes.size(), 8u);
  const ResultTable plain = explore::run_sweep(spec, 3);
  {
    serve::ResultCache cold(dir.string());
    EXPECT_EQ(explore::run_sweep(spec, 3, {}, serve::cache_hooks(cold)).to_csv(), plain.to_csv());
    EXPECT_EQ(cold.counters().inserts, spec.size());
  }
  for (const int threads : {1, 2, 3}) {
    serve::ResultCache warm(dir.string());
    const ResultTable served = explore::run_sweep(spec, threads, {}, serve::cache_hooks(warm));
    EXPECT_EQ(warm.counters().hits, spec.size()) << "threads=" << threads;
    EXPECT_EQ(served.to_csv(), plain.to_csv()) << "threads=" << threads;
  }
}

TEST(ServeCache, UnknownHeaderRetiresTheFile) {
  const fs::path dir = scratch_dir("cache_version");
  {
    std::ofstream f(dir / "results.srcl", std::ios::binary);
    f << "smartnoc-result-cache v999\nsome future entry\n";
  }
  serve::ResultCache cache(dir.string());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(slurp(dir / "results.srcl"), std::string(serve::ResultCache::kHeader) + "\n");
}

/// The lines of `s` split at '\n', empty ones left out (the reader skips them).
std::vector<std::string_view> nonempty_lines(std::string_view s) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t nl = std::min(s.find('\n'), s.size());
    if (nl > 0) out.push_back(s.substr(0, nl));
    s.remove_prefix(std::min(nl + 1, s.size()));
  }
  return out;
}

TEST(ServeCache, MutatedCacheFilesServeOnlyTheirStoredRecords) {
  // A seeded campaign of flipped, inserted, deleted and duplicated bytes
  // over a results.srcl written by a sweep. Every open succeeds, every line
  // is indexed or counted corrupt, every served record is the one stored for
  // its key, a line that survived intact is still served, and the open
  // scrubs the damage so a second open finds none.
  const fs::path dir = scratch_dir("cache_mutants");
  const SweepSpec spec = serve_spec();
  {
    serve::ResultCache cache(dir.string());
    explore::run_sweep(spec, 2, {}, serve::cache_hooks(cache));
  }
  const fs::path file = dir / "results.srcl";
  const std::string original = slurp(file);
  const std::vector<std::string_view> original_lines = nonempty_lines(original);
  ASSERT_EQ(original_lines.size(), spec.size() + 1);
  std::map<std::string_view, std::pair<Hash128, RunRecord>> stored;  // line -> key, record
  {
    serve::ResultCache cache(dir.string());
    for (std::size_t i = 1; i < original_lines.size(); ++i) {
      const Hash128 key = *Hash128::from_hex(original_lines[i].substr(0, 32));
      stored.emplace(original_lines[i], std::pair{key, *cache.lookup(key)});
    }
  }

  Xoshiro256 rng(20261021);
  int damaged_opens = 0, retired = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string mutant = testing::mutate(original, rng, "\n 0123456789abcdef{}\":,");
    {
      std::ofstream f(file, std::ios::binary | std::ios::trunc);
      f << mutant;
    }
    serve::ResultCache cache(dir.string());
    const std::vector<std::string_view> lines = nonempty_lines(mutant);
    const bool header_ok = mutant.starts_with(std::string(serve::ResultCache::kHeader) + '\n');
    const std::size_t opened = cache.size();
    if (header_ok) {
      EXPECT_EQ(opened + cache.counters().corrupt_dropped, lines.size() - 1) << mutant;
    } else {
      EXPECT_EQ(opened, 0u) << mutant;
      ++retired;
    }
    damaged_opens += cache.counters().corrupt_dropped > 0;
    for (const auto& [line, entry] : stored) {
      const auto hit = cache.lookup(entry.first);
      if (hit) {
        EXPECT_EQ(*hit, entry.second) << mutant;
      }
      const bool intact =
          header_ok && std::find(lines.begin() + 1, lines.end(), line) != lines.end();
      if (intact) {
        EXPECT_TRUE(hit.has_value()) << "an intact line was not served:\n" << mutant;
      }
    }
    serve::ResultCache again(dir.string());
    EXPECT_EQ(again.counters().corrupt_dropped, 0u) << mutant;
    EXPECT_EQ(again.size(), opened) << mutant;
  }
  EXPECT_GT(damaged_opens, 500) << "the campaign should mostly damage lines";
  EXPECT_GT(retired, 10) << "the campaign should also hit the header";
}

// --- Job queue ---------------------------------------------------------------

TEST(ServeQueue, SubmitStatusAndSpecRoundTrip) {
  const fs::path dir = scratch_dir("queue_submit");
  serve::JobStore store(dir.string());
  const std::string id = store.submit(sweep_text(), "My Sweep.sweep");
  EXPECT_EQ(id, "j001-my-sweep-sweep");
  EXPECT_TRUE(store.has_job(id));
  EXPECT_EQ(store.sweep_text(id), sweep_text());
  const serve::JobInfo info = store.info(id);
  EXPECT_EQ(info.state, serve::JobInfo::State::Pending);
  EXPECT_EQ(info.total, 4u);
  EXPECT_EQ(info.done, 0u);
  EXPECT_EQ(store.submit(sweep_text(), "other"), "j002-other");
  EXPECT_EQ(store.job_ids().size(), 2u);
}

TEST(ServeQueue, RunJobCompletesAndFinalizes) {
  const fs::path dir = scratch_dir("queue_run");
  serve::JobStore store(dir.string());
  const std::string id = store.submit(sweep_text(), "run");
  serve::ServeOptions opt;
  opt.threads = 2;
  opt.quiet = true;
  const ResultTable table = serve::run_job(store, id, nullptr, opt);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(store.info(id).state, serve::JobInfo::State::Done);
  EXPECT_EQ(slurp(fs::path(store.job_dir(id)) / "results.csv"), table.to_csv());
  EXPECT_EQ(table.to_csv(), explore::run_sweep(serve_spec(), 1).to_csv())
      << "queue path must match a plain sweep of the same spec";
  // Running a Done job again just loads the results.
  const ResultTable again = serve::run_job(store, id, nullptr, opt);
  EXPECT_EQ(again.to_csv(), table.to_csv());
}

TEST(ServeQueue, ResumeRunsOnlyMissingPoints) {
  const SweepSpec spec = serve_spec();
  const ResultTable full = explore::run_sweep(spec, 1);

  const fs::path dir = scratch_dir("queue_resume");
  serve::JobStore store(dir.string());
  const std::string id = store.submit(sweep_text(), "resume");

  // Hand-write a partial checkpoint: points 0 and 2 done, plus one corrupt
  // line (as if the server was killed mid-append on point 3).
  {
    std::ofstream p(store.progress_file(id), std::ios::binary);
    p << serve::JobStore::kProgressHeader << '\n';
    p << serve::format_checked_line("0", explore::record_to_json(full.at(0)));
    p << serve::format_checked_line("2", explore::record_to_json(full.at(2)));
    const std::string partial = serve::format_checked_line("3", explore::record_to_json(full.at(3)));
    p << partial.substr(0, partial.size() / 2);
  }
  EXPECT_EQ(store.info(id).state, serve::JobInfo::State::Partial);
  EXPECT_EQ(store.info(id).done, 2u);

  // Count what actually executes via the cache: only computed points insert.
  serve::ResultCache cache((dir / "cache").string());
  serve::ServeOptions opt;
  opt.threads = 2;
  opt.quiet = true;
  const ResultTable resumed = serve::run_job(store, id, &cache, opt);
  EXPECT_EQ(cache.counters().inserts, 2u) << "only points 1 and 3 may run";
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(resumed.to_csv(), full.to_csv()) << "resumed table must be byte-identical";
  EXPECT_EQ(store.info(id).state, serve::JobInfo::State::Done);
}

TEST(ServeQueue, InvalidSpecIsMarkedFailed) {
  const fs::path dir = scratch_dir("queue_failed");
  serve::JobStore store(dir.string());
  const std::string id = store.submit("mesh = banana\n", "bad");
  serve::ServeOptions opt;
  opt.quiet = true;
  const ResultTable table = serve::run_job(store, id, nullptr, opt);
  EXPECT_TRUE(table.empty());
  const serve::JobInfo info = store.info(id);
  EXPECT_EQ(info.state, serve::JobInfo::State::Failed);
  EXPECT_FALSE(info.error.empty());
}

// --- scenario_files sweep axis -----------------------------------------------

TEST(ServeScenario, ScenarioFilesExpandAndCache) {
  const fs::path dir = scratch_dir("scenario_axis");
  const fs::path scn = dir / "mini.scn";
  {
    std::ofstream f(scn);
    f << "name = mini\n"
         "design = smart\n"
         "mesh = 3x3\n"
         "seed = 42\n"
         "warmup = 200\n"
         "phase main workload=uniform injection=0.04 cycles=1500 measure\n"
         "phase drain drain\n";
  }

  // A sweep file with only scenario_files is scenario-only: no grid points.
  SweepSpec only = explore::parse_sweep("scenario_files = " + scn.string() + "\n");
  EXPECT_TRUE(only.axes.empty());
  EXPECT_EQ(only.size(), 1u);
  const auto pts = only.expand();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].scenario_file, scn.string());

  // Naming a config axis keeps the grid and appends the scenario points.
  SweepSpec mixed = explore::parse_sweep("mesh = 2x2\ninjection = 0.05\n"
                                         "warmup = 200\nmeasure = 2000\n"
                                         "scenario_files = " + scn.string() + "\n");
  EXPECT_FALSE(mixed.axes.empty());
  EXPECT_EQ(mixed.size(), 2u);

  // The scenario point runs, echoes the file's resolved values, and its
  // cache entry is shared across different sweeps containing it.
  serve::ResultCache cache((dir / "cache").string());
  const ResultTable t1 = explore::run_sweep(only, 1, {}, serve::cache_hooks(cache));
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_TRUE(t1.at(0).ok) << t1.at(0).error;
  EXPECT_EQ(t1.at(0).workload, "scenario:" + scn.string());
  EXPECT_EQ(t1.at(0).width, 3);
  EXPECT_EQ(t1.at(0).seed, 42u);
  EXPECT_EQ(cache.counters().inserts, 1u);

  const ResultTable t2 = explore::run_sweep(mixed, 2, {}, serve::cache_hooks(cache));
  EXPECT_EQ(cache.counters().hits, 1u) << "scenario point must hit across sweeps";
  EXPECT_EQ(t2.at(1).workload, "scenario:" + scn.string());
  RunRecord served = t2.at(1);
  RunRecord computed = t1.at(0);
  served.index = computed.index = 0;
  EXPECT_EQ(served, computed) << "served scenario row must equal the computed one";
}

TEST(ServeScenario, TraceReplaysAlwaysRun) {
  // A replay's key names the capture's path, not its bytes: a re-recorded
  // capture must not be served from the cache.
  const fs::path dir = scratch_dir("trace_axis");
  const std::string cap = (dir / "cap.sntr").string();
  const auto record = [&](const char* workload) {
    NocConfig cfg = NocConfig::paper_4x4();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 500;
    sim::ScenarioSpec live = sim::ScenarioSpec::classic(Design::Smart, workload, 0.05, cfg);
    live.telemetry.record_trace = cap;
    ASSERT_TRUE(sim::Session(live).run().ok);
  };
  const SweepSpec spec = explore::parse_sweep("workload = trace:" + cap +
                                              "\nwarmup = 100\nmeasure = 500\n");
  serve::ResultCache cache((dir / "cache").string());
  record("transpose");
  const ResultTable first = explore::run_sweep(spec, 1, {}, serve::cache_hooks(cache));
  record("neighbor");
  const ResultTable second = explore::run_sweep(spec, 1, {}, serve::cache_hooks(cache));
  ASSERT_TRUE(first.at(0).ok && second.at(0).ok) << first.at(0).error << second.at(0).error;
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().inserts, 0u);
  EXPECT_NE(first.at(0).packets, second.at(0).packets);
}

TEST(ServeScenario, MissingScenarioFileFailsTheRowNotTheSweep) {
  SweepSpec only = explore::parse_sweep("scenario_files = /nonexistent/x.scn\n");
  const ResultTable t = explore::run_sweep(only, 1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.at(0).ok);
  EXPECT_NE(t.at(0).error.find("cannot open scenario file"), std::string::npos);
}

}  // namespace
}  // namespace smartnoc
