// The JSON reader's contract, checked through its three front-ends
// (scenario files, result records, heartbeats):
//
//   * escapes and malformed input: every JSON escape decodes, and an unknown
//     escape, a bad or out-of-range \u, a malformed scalar or trailing bytes
//     throw ConfigError - the same rules whichever front-end reads them;
//   * a seeded mutation campaign: flipped, inserted, deleted and duplicated
//     bytes in a serialized document either throw ConfigError or parse to a
//     value that survives its own serialize -> parse round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "explore/result_sink.hpp"
#include "helpers.hpp"
#include "noc/fault_engine.hpp"
#include "obs/export.hpp"
#include "sim/scenario.hpp"

namespace smartnoc {
namespace {

const std::string kPhases =
    R"("phases": [{"name": "p", "workload": "vopd", "cycles": 10}])";

struct FrontEnd {
  const char* context;  ///< how its errors name the document
  /// Reads a document whose one string member holds the literal `body`.
  std::function<std::string(const std::string& body)> decode;
  /// Reads a whole document.
  std::function<void(const std::string& doc)> read;
  /// Documents this front-end must refuse.
  std::vector<std::string> malformed;
};

std::vector<FrontEnd> front_ends() {
  return {
      {"scenario",
       [](const std::string& body) {
         // A scenario name may not start or end with a blank: pad it.
         const std::string name =
             sim::parse_scenario("{\"name\": \"<" + body + ">\", " + kPhases + "}").name;
         return name.substr(1, name.size() - 2);
       },
       [](const std::string& doc) { sim::parse_scenario(doc); },
       {
           "{" + kPhases + "} x",
           "{\"seed\": +7, " + kPhases + "}",
           "{\"seed\": 007, " + kPhases + "}",
           "{\"fault_rate\": .5, " + kPhases + "}",
           "{\"name\": null, " + kPhases + "}",
           "{\"name\": [\"a\"], " + kPhases + "}",
           "{\"phases\": [1]}",
           "{\"phases\": {}}",
           "{\"fault_events\": [7], " + kPhases + "}",
           "{\"name\": \"a\", " + kPhases,
           "{\"na\\me\": \"a\", " + kPhases + "}",
       }},
      {"ResultTable",
       [](const std::string& body) {
         return explore::record_from_json("{\"workload\": \"" + body + "\"}").workload;
       },
       [](const std::string& doc) { explore::record_from_json(doc); },
       {
           R"({"ok": tru})",
           R"({"ok": 2})",
           R"({"ok": "true"})",
           R"({"flows": 01})",
           R"({"flows": null})",
           R"({"workload": 5})",
           R"({"injection": 1.})",
           R"({"index": 1} x)",
           R"({"index": 1}})",
           "{\f\"index\": 1}",
           R"({"flows": 1x})",
           R"({"flows": -})",
           R"({"flows": +1})",
           R"({"injection": 1e})",
           R"({"injection": 1.5.2})",
           R"({"ok": truex})",
           R"({"ok": nul})",
           R"({"workload": "never closed})",
           R"({"in\u0064ex": 1})",
       }},
      {"heartbeat",
       [](const std::string& body) {
         return obs::heartbeat_from_json("{\"job\": \"" + body + "\"}").job;
       },
       [](const std::string& doc) { obs::heartbeat_from_json(doc); },
       {
           R"({"pid": 1} {})",
           R"({"pid": -})",
           R"({"pid": 1e})",
           R"({"job": null})",
           R"({"points_done": "3"})",
           R"({"eta_seconds": inf})",
       }},
  };
}

TEST(JsonReader, EscapesAndMalformedInput) {
  // String literal bodies and what they decode to (nullopt: must throw).
  const std::pair<std::string, std::optional<std::string>> strings[] = {
      {R"(plain)", "plain"},
      {R"(a\"b)", "a\"b"},
      {R"(a\\b)", "a\\b"},
      {R"(a\/b)", "a/b"},
      {R"(a\bb)", "a\bb"},
      {R"(a\fb)", "a\fb"},
      {R"(a\tb)", "a\tb"},
      {R"(x\u0041y)", "xAy"},
      {R"(\u0001\u00fF)", "\x01\xff"},
      {R"(x\uZZZZy)", std::nullopt},
      {R"(x\u-0ff)", std::nullopt},
      {R"(x\u00)", std::nullopt},
      {R"(x\u0100)", std::nullopt},
      {R"(q\qz)", std::nullopt},
      {R"(tail\)", std::nullopt},
  };
  for (const FrontEnd& fe : front_ends()) {
    for (const auto& [body, want] : strings) {
      if (want) {
        EXPECT_EQ(fe.decode(body), *want) << fe.context << ": " << body;
      } else {
        EXPECT_THROW(fe.decode(body), ConfigError) << fe.context << ": " << body;
      }
    }
    for (const std::string& doc : fe.malformed) {
      try {
        fe.read(doc);
        ADD_FAILURE() << fe.context << " accepted " << doc;
      } catch (const ConfigError& e) {
        // The reader's own errors name the document and the byte offset.
        const std::string what = e.what();
        if (what.find(" JSON, byte ") != std::string::npos) {
          EXPECT_EQ(what.rfind(fe.context, 0), 0u) << what;
        }
      }
    }
  }
}

TEST(JsonReader, RecordErrorMessagesArePinned) {
  const std::pair<std::string, std::string> cases[] = {
      {R"({"flows": 1x})", "ResultTable JSON, byte 12: malformed scalar '1x'"},
      {R"({"flows": -})", "ResultTable JSON, byte 11: malformed scalar '-'"},
      {R"({"flows": +1})", "ResultTable JSON, byte 12: malformed scalar '+1'"},
      {R"({"flows": 01})", "ResultTable JSON, byte 12: malformed scalar '01'"},
      {R"({"injection": 1e})", "ResultTable JSON, byte 16: malformed scalar '1e'"},
      {R"({"injection": 1.5.2})", "ResultTable JSON, byte 19: malformed scalar '1.5.2'"},
      {R"({"ok": truex})", "ResultTable JSON, byte 12: malformed scalar 'truex'"},
      {R"({"ok": nul})", "ResultTable JSON, byte 10: malformed scalar 'nul'"},
      {R"({"index": })", "ResultTable JSON, byte 10: expected a value"},
      {R"({"index": 1,})", "ResultTable JSON, byte 12: expected '\"'"},
      {R"({"index": 1} x)", "ResultTable JSON, byte 13: trailing bytes after the document"},
      {R"({"workload": "never closed})", "ResultTable JSON, byte 14: unterminated string"},
      {R"({"workload": "a\qb"})", "ResultTable JSON, byte 17: unsupported escape '\\q'"},
      {R"({"index)", "ResultTable JSON, byte 2: unterminated key"},
      {R"({"inde\)", "ResultTable JSON, byte 2: unterminated key"},
      {R"({"in\u0064ex": 1})", "ResultTable JSON, byte 2: escaped keys are not supported"},
      {R"({"flows": 99999999999})", "malformed ResultTable number: '99999999999'"},
      {R"({"ok": 2})", "malformed ResultTable column 'ok': '2' (expected a boolean)"},
      {R"({"bogus": 1})", "unknown ResultTable column 'bogus'"},
  };
  for (const auto& [doc, want] : cases) {
    try {
      explore::record_from_json(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), want) << doc;
    }
  }
}

// --- Record round trips ----------------------------------------------------------

constexpr double explore::RunRecord::*kDoubleColumns[] = {
    &explore::RunRecord::injection,       &explore::RunRecord::fault_rate,
    &explore::RunRecord::avg_net_latency, &explore::RunRecord::avg_total_latency,
    &explore::RunRecord::p50_latency,     &explore::RunRecord::p99_latency,
    &explore::RunRecord::max_latency,     &explore::RunRecord::throughput_ppc,
    &explore::RunRecord::power_mw,        &explore::RunRecord::area_mm2,
};

/// A finite double: a special value (signed zeros, subnormals, extremes)
/// a quarter of the time, any finite bit pattern otherwise.
double random_double(Xoshiro256& rng) {
  constexpr double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() - std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      1.0 / 3.0,
      0.1,
  };
  if (rng.below(4) == 0) return kSpecial[rng.below(std::size(kSpecial))];
  while (true) {
    const double v = std::bit_cast<double>(rng.next());
    if (std::isfinite(v)) return v;  // inf and nan have no JSON spelling
  }
}

/// Up to 24 bytes, any of the 256 (so every escape the emitter writes, raw
/// high bytes and embedded NULs), with quotes, backslashes and slashes
/// drawn often.
std::string random_text(Xoshiro256& rng) {
  std::string out(rng.below(25), '\0');
  for (char& c : out) {
    constexpr std::string_view kPunct = "\"\\/\b\f\n\r\t";
    c = rng.below(3) == 0 ? kPunct[rng.below(kPunct.size())]
                          : static_cast<char>(rng.below(256));
  }
  return out;
}

int random_int(Xoshiro256& rng) { return static_cast<int>(static_cast<std::uint32_t>(rng.next())); }

explore::RunRecord random_record(Xoshiro256& rng) {
  explore::RunRecord r;
  r.index = rng.next();
  r.width = random_int(rng);
  r.height = random_int(rng);
  r.flit_bits = random_int(rng);
  r.hpc_max = random_int(rng);
  r.workload = random_text(rng);
  r.fault_schedule = random_text(rng);
  r.design = random_text(rng);
  r.seed = rng.next();
  r.ok = rng.below(2) == 1;
  r.error = random_text(rng);
  r.flows = random_int(rng);
  r.dropped_flows = random_int(rng);
  r.packets = rng.next();
  r.packets_offered = rng.next();
  r.packets_dropped = rng.next();
  r.packets_retransmitted = rng.next();
  r.flows_rerouted = rng.next();
  r.flows_failed = rng.next();
  for (const auto member : kDoubleColumns) r.*member = random_double(rng);
  return r;
}

void expect_bit_identical(const explore::RunRecord& got, const explore::RunRecord& want) {
  EXPECT_EQ(got, want);
  for (const auto member : kDoubleColumns) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.*member), std::bit_cast<std::uint64_t>(want.*member))
        << want.*member;
  }
}

TEST(JsonReader, RandomRecordsRoundTripBitExactly) {
  Xoshiro256 rng(20261020);
  for (int i = 0; i < 1000; ++i) {
    const explore::RunRecord rec = random_record(rng);
    const std::string json = explore::record_to_json(rec);
    SCOPED_TRACE(json);
    expect_bit_identical(explore::record_from_json(json), rec);
  }
}

/// The top-level members of a flat JSON object, split outside strings.
std::vector<std::string> object_members(const std::string& json) {
  std::vector<std::string> out(1);
  bool in_string = false;
  for (std::size_t i = 1; i + 1 < json.size(); ++i) {
    const char c = json[i];
    if (in_string && c == '\\') {
      out.back() += json.substr(i++, 2);
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (!in_string && c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

TEST(JsonReader, RecordMembersDecodeInAnyOrder) {
  Xoshiro256 rng(7);
  const explore::RunRecord rec = random_record(rng);
  const std::string json = explore::record_to_json(rec);
  std::vector<std::string> members = object_members(json);
  ASSERT_EQ(members.size(), 29u);
  std::reverse(members.begin(), members.end());
  std::string reversed = "{";
  for (const std::string& m : members) reversed += (reversed.size() > 1 ? "," : "") + m;
  reversed += '}';
  ASSERT_NE(reversed, json);
  SCOPED_TRACE(reversed);
  expect_bit_identical(explore::record_from_json(reversed), rec);
}

// --- Mutation campaign ---------------------------------------------------------

/// Inserted bytes are JSON punctuation half of the time, so mutants get past
/// the first token.
constexpr std::string_view kJsonBytes = "{}[]:,\"\\ 0123456789-+.eEtrufalsn";

/// Runs `n` mutants of `doc`; returns how many parsed.
template <class T, class Parse, class Serialize>
int run_campaign(const std::string& doc, Parse parse, Serialize serialize, std::uint64_t seed,
                 int n = 2000) {
  Xoshiro256 rng(seed);
  int parsed = 0;
  for (int i = 0; i < n; ++i) {
    const std::string mutant = testing::mutate(doc, rng, kJsonBytes);
    std::optional<T> v;
    try {
      v = parse(mutant);
    } catch (const ConfigError&) {
      continue;  // a typed refusal is a pass
    }
    ++parsed;
    const std::string again = serialize(*v);
    EXPECT_EQ(parse(again), *v) << "mutant:\n" << mutant << "\nreserialized:\n" << again;
  }
  return parsed;
}

TEST(JsonMutation, ScenarioMutantsThrowOrRoundTrip) {
  sim::ScenarioSpec spec = sim::parse_scenario(
      "name = appswitch\ndesign = smart\nmesh = 8x4\nseed = 18446744073709551557\n"
      "fault_rate = 0.25\ndrain_timeout = 5000\n"
      "phase warm workload=wlan injection=1 cycles=2000\n"
      "phase b workload=vopd injection=0.5 cycles=9000 measure reconfigure\n"
      "phase drain drain\n");
  spec.fault_events = noc::parse_fault_schedule_token("kill@2500:27:E+stall@2600:5@3000");
  const int parsed = run_campaign<sim::ScenarioSpec>(
      sim::serialize_scenario_json(spec), sim::parse_scenario, sim::serialize_scenario_json,
      20261018);
  EXPECT_GT(parsed, 100) << "the campaign should reach the accepting path";
}

TEST(JsonMutation, RecordMutantsThrowOrRoundTrip) {
  explore::RunRecord rec;
  rec.index = 17;
  rec.width = 8;
  rec.height = 4;
  rec.injection = 0.05;
  rec.workload = "scenario:a \"b\",c";
  rec.fault_schedule = "kill@2000:5:E";
  rec.design = "Mesh";
  rec.seed = 0xdeadbeefcafef00dULL;
  rec.ok = true;
  rec.error = "line1\nline2\t\\end";
  rec.packets = 1234;
  rec.avg_net_latency = 1.0 / 3.0;
  rec.throughput_ppc = 5e-324;
  rec.power_mw = 3.842384;
  const int parsed = run_campaign<explore::RunRecord>(
      explore::record_to_json(rec), explore::record_from_json, explore::record_to_json,
      20261019);
  EXPECT_GT(parsed, 100) << "the campaign should reach the accepting path";
}

TEST(JsonMutation, HeartbeatMutantsThrowOrRoundTrip) {
  obs::Heartbeat hb;
  hb.pid = 12345;
  hb.uptime_seconds = 17.25;
  hb.job = "j003 \"smoke\"\r\n\\";
  hb.points_done = 42;
  hb.points_total = 96;
  hb.points_per_sec = 3.5;
  hb.eta_seconds = 15.428571428571429;
  const int parsed = run_campaign<obs::Heartbeat>(
      obs::to_json(hb), obs::heartbeat_from_json,
      [](const obs::Heartbeat& h) { return obs::to_json(h); }, 20261020);
  EXPECT_GT(parsed, 100) << "the campaign should reach the accepting path";
}

}  // namespace
}  // namespace smartnoc
